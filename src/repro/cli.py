"""Single source of truth for the shared command-line options.

Before this module existed, ``--system``/``--scale``/``--blocks``/``--seed``/
``--workers``/``--trace-cache``/``--backend``/``--json`` were re-declared in
``experiments/__main__.py``, ``sweeps/__main__.py`` and ``bench/__main__.py``
with drifting defaults, spellings (``--cores`` vs ``--num-cores``) and help
strings.  Each shared flag is now defined exactly once in
:data:`SHARED_OPTIONS`; a CLI picks the subset it needs with
:func:`add_options`.  Module-specific flags (``--axis``, ``--check``,
``--quick``, ...) stay in their own ``__main__`` — the ``cli-options``
checker of ``python -m repro.analysis`` (run in CI) only bans re-declaring
the *shared* option strings outside this module.

``--cores`` and ``--num-cores`` are aliases of one destination, so both
historical spellings keep working on every CLI.

The result cache is controlled by three layers (see
:func:`repro.results.resolve_result_cache_dir`): ``--result-cache [DIR]``
turns it on (bare flag uses the default directory), the
``REPRO_RESULT_CACHE`` environment variable supplies a default, and
``--no-result-cache`` wins over both — which is how a ``repro.serve``
deployment (cache on by default) and a one-shot batch run (cache off by
default) share one option set.
"""

from __future__ import annotations

import argparse
from typing import Callable, Dict, Optional

from . import envvars
from .errors import ConfigurationError
from .results import (
    DEFAULT_RESULT_CACHE_DIR,
    RESULT_CACHE_ENV_VAR,
    resolve_result_cache_dir,
)
from .workloads.suite import WORKLOAD_NAMES
from .workloads.trace_cache import DEFAULT_CACHE_DIR


def _add_system(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--system",
        choices=("scaled", "paper"),
        default="scaled",
        help="system configuration (default: scaled)",
    )


def _add_scale(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        type=int,
        default=16,
        help="shrink factor for the scaled system (default: 16)",
    )


def _add_workloads(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workloads",
        default=None,
        help=f"comma-separated subset of: {', '.join(WORKLOAD_NAMES)}",
    )


def _add_cores(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cores",
        "--num-cores",
        dest="cores",
        type=int,
        default=None,
        help="cores to trace (default: all)",
    )


def _add_blocks(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--blocks",
        type=int,
        default=None,
        help="trace length per core in blocks (default: per-workload)",
    )


def _add_seed(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="workload RNG seed (default: 0)")


def _add_workers(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="fan experiment cells over N processes (default: $REPRO_WORKERS or serial)",
    )


def _add_trace_cache(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-cache",
        default=None,
        metavar="DIR",
        help=f"directory to cache generated traces in (e.g. {DEFAULT_CACHE_DIR})",
    )


def _add_backend(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        default=None,
        metavar="NAME",
        help="simulation backend: python or numpy "
        "(default: $REPRO_BACKEND or python); results are identical",
    )


def _add_chunk_blocks(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--chunk-blocks",
        type=int,
        default=None,
        metavar="N",
        help="stream each core's trace through the engine in windows of N "
        f"blocks (default: ${envvars.CHUNK_BLOCKS.name} or monolithic); "
        "reports are byte-identical for every geometry — see ARCHITECTURE.md",
    )


def _add_json(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the report as canonical JSON to PATH",
    )


def _add_result_cache(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--result-cache",
        nargs="?",
        const=DEFAULT_RESULT_CACHE_DIR,
        default=None,
        metavar="DIR",
        help="content-addressed simulation-result cache: re-runs recompute "
        f"only changed cells (bare flag uses {DEFAULT_RESULT_CACHE_DIR}; "
        f"${RESULT_CACHE_ENV_VAR} supplies a default directory)",
    )
    parser.add_argument(
        "--no-result-cache",
        action="store_true",
        help=f"disable the result cache even if ${RESULT_CACHE_ENV_VAR} is set",
    )


#: Canonical definition of every shared option, keyed by registry name.
SHARED_OPTIONS: Dict[str, Callable[[argparse.ArgumentParser], None]] = {
    "system": _add_system,
    "scale": _add_scale,
    "workloads": _add_workloads,
    "cores": _add_cores,
    "blocks": _add_blocks,
    "seed": _add_seed,
    "workers": _add_workers,
    "trace-cache": _add_trace_cache,
    "backend": _add_backend,
    "chunk-blocks": _add_chunk_blocks,
    "json": _add_json,
    "result-cache": _add_result_cache,
}

#: The option strings the shared registry owns.  The ``cli-options``
#: analysis checker fails CI when any of these is re-declared outside this
#: module.
SHARED_OPTION_STRINGS = frozenset(
    {
        "--system",
        "--scale",
        "--workloads",
        "--cores",
        "--num-cores",
        "--blocks",
        "--seed",
        "--workers",
        "--trace-cache",
        "--backend",
        "--chunk-blocks",
        "--json",
        "--result-cache",
        "--no-result-cache",
    }
)


def add_options(parser: argparse.ArgumentParser, *names: str) -> argparse.ArgumentParser:
    """Attach the named shared options to ``parser`` and return it."""
    for name in names:
        try:
            SHARED_OPTIONS[name](parser)
        except KeyError:
            raise KeyError(
                f"unknown shared option {name!r}; known: {', '.join(sorted(SHARED_OPTIONS))}"
            ) from None
    return parser


def envvar_epilog() -> str:
    """Shared ``--help`` epilog: the envvar registry plus the docs pointer.

    Every subcommand renders the same declared registry (so a knob such as
    ``REPRO_CHUNK_BLOCKS`` appears in each ``--help`` the moment it is
    declared in :mod:`repro.envvars`) and points at ARCHITECTURE.md for the
    subsystem map and the chunked-streaming invariants.
    """
    return (
        "environment variables (see repro/envvars.py):\n"
        + envvars.help_text()
        + "\n\nsubsystem map and chunked-streaming (--chunk-blocks) invariants:"
        " see ARCHITECTURE.md"
    )


def result_cache_from_args(
    args: argparse.Namespace, default: Optional[str] = None
) -> Optional[str]:
    """The result-cache directory an invocation asked for (None = off).

    Resolution order: ``--no-result-cache`` > ``--result-cache [DIR]`` >
    ``$REPRO_RESULT_CACHE`` > ``default`` (the per-command policy: None for
    the batch CLIs, the default directory for ``repro.serve``).
    """
    return resolve_result_cache_dir(
        explicit=getattr(args, "result_cache", None),
        disabled=getattr(args, "no_result_cache", False),
        default=default,
    )


def workloads_from_args(args: argparse.Namespace) -> Optional[list]:
    """Split the comma-separated ``--workloads`` value (None = full suite)."""
    raw = getattr(args, "workloads", None)
    return raw.split(",") if raw else None


def resolve_chunk_blocks(explicit: Optional[int]) -> Optional[int]:
    """Effective chunked-streaming window (None = monolithic).

    Resolution order: the explicit ``--chunk-blocks`` value >
    ``$REPRO_CHUNK_BLOCKS`` > monolithic.  Validation happens here so both
    sources produce the same error messages naming their origin.
    """
    if explicit is not None:
        if explicit < 1:
            raise ConfigurationError(
                f"--chunk-blocks must be a positive block count, got {explicit!r}"
            )
        return explicit
    raw = envvars.CHUNK_BLOCKS.read()
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"{envvars.CHUNK_BLOCKS.name} must be an integer block count, got {raw!r}"
        ) from None
    if value < 1:
        raise ConfigurationError(
            f"{envvars.CHUNK_BLOCKS.name} must be a positive block count, got {raw!r}"
        )
    return value


def chunk_blocks_from_args(args: argparse.Namespace) -> Optional[int]:
    """The chunked-streaming window an invocation asked for (None = monolithic)."""
    return resolve_chunk_blocks(getattr(args, "chunk_blocks", None))


__all__ = [
    "SHARED_OPTIONS",
    "SHARED_OPTION_STRINGS",
    "add_options",
    "chunk_blocks_from_args",
    "envvar_epilog",
    "resolve_chunk_blocks",
    "result_cache_from_args",
    "workloads_from_args",
]
