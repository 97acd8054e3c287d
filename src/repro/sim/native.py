"""One loader for the C kernels of the fast engines.

Each fast engine that runs compiled code keeps its C source as the
``SOURCE`` constant of its own ``kernel`` module
(:mod:`repro.bittorrent.fast.kernel` for the swarm,
:mod:`repro.core.fast.kernel` for the matching), with the ctypes
signatures of its functions and a cached ``load()``.  :func:`build` is
what those ``load()`` functions share: it compiles a source with the
compiler Python was built with, inside a temporary directory, loads the
library with :mod:`ctypes` and declares its signatures.  Because the
sources live in ``*.py`` modules,
:func:`repro.sim.parallel.source_fingerprint` sees every kernel change
and a wheel ships the kernels with the package.

There is no fallback: without a working compiler a fast engine cannot
run, and :class:`KernelBuildError` names the engine, the command and its
stderr.  ``engine="reference"`` needs no compiler and is bit-identical.
"""

from __future__ import annotations

import ctypes
import os
import shlex
import subprocess
import sysconfig
import tempfile
from typing import Any, List, Mapping, Tuple

__all__ = ["KernelBuildError", "build"]

# Optimise, but never contract or reassociate float operations: no
# -ffast-math, and GCC's GNU-mode default -ffp-contract=fast may fuse into FMAs.
_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")


class KernelBuildError(RuntimeError):
    """The C kernel of a fast engine could not be compiled."""


def build(
    engine: str,
    source: str,
    signatures: Mapping[str, Tuple[Any, Tuple[Any, ...]]],
) -> ctypes.CDLL:
    """Compile ``source`` for ``engine`` and load it, declaring ``signatures``.

    ``signatures`` maps each exported function to its ``(restype,
    argtypes)``; ``engine`` names the engine in a build failure.
    """
    command: List[str] = [
        *shlex.split(sysconfig.get_config_var("CC") or "cc"),
        *_FLAGS,
    ]
    with tempfile.TemporaryDirectory() as build_dir:
        source_path = os.path.join(build_dir, "kernel.c")
        target = os.path.join(build_dir, "kernel.so")
        with open(source_path, "w", encoding="utf-8") as handle:
            handle.write(source)
        argv = [*command, "-o", target, source_path]
        try:
            done = subprocess.run(argv, capture_output=True, text=True, check=False)
            failure = done.stderr.strip() if done.returncode else None
        except OSError as error:
            failure = str(error)
        if failure is not None:
            raise KernelBuildError(
                f"{engine} compiles a C kernel, and "
                f"`{shlex.join(command)}` failed:\n{failure}\n"
                'Install a C compiler, or use engine="reference", which needs '
                "none and is bit-identical."
            )
        library = ctypes.CDLL(target)
    for name, (restype, argtypes) in signatures.items():
        function = getattr(library, name)
        function.argtypes = argtypes
        function.restype = restype
    return library
