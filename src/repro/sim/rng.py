"""Named, seed-derived random streams.

A single shared ``Generator`` makes results depend on *consumption order*:
adding a metrics subscriber that draws one sample shifts every later draw.
These helpers instead derive an independent stream per (root seed, name)
pair, so:

- each component's randomness depends only on the root seed and its own
  stream name, never on what other components sampled;
- the scenario-sweep orchestrator can hand every run a distinct,
  reproducible seed derived from one base seed, stable under re-ordering
  and parallel execution.

Derivation uses ``numpy.random.SeedSequence`` keyed with CRC32 hashes of the
stream names -- stable across processes and Python versions (unlike
``hash()``, which is salted per interpreter).
"""

from __future__ import annotations

import zlib
from typing import Dict, Tuple, Union

import numpy as np

__all__ = ["RngStreams", "derive_seed", "named_generator"]

Name = Union[str, int]


def _name_key(name: Name) -> int:
    if isinstance(name, int):
        return name & 0xFFFFFFFF
    return zlib.crc32(str(name).encode("utf-8"))


def _seed_sequence(root_seed: int, names: Tuple[Name, ...]) -> np.random.SeedSequence:
    return np.random.SeedSequence((int(root_seed),) + tuple(_name_key(n) for n in names))


def named_generator(root_seed: int, *names: Name) -> np.random.Generator:
    """An independent ``Generator`` for the stream ``names`` under ``root_seed``."""
    return np.random.default_rng(_seed_sequence(root_seed, names))


def derive_seed(root_seed: int, *names: Name) -> int:
    """A stable 63-bit integer seed for the named stream.

    Use this to hand seeds across process boundaries (sweep workers) or to
    APIs that take plain integer seeds.
    """
    state = _seed_sequence(root_seed, names).generate_state(2, dtype=np.uint32)
    return (int(state[0]) << 31) ^ int(state[1])


class RngStreams:
    """A registry of named streams under one root seed.

    Repeated requests for the same name return the *same* generator object,
    so a component that draws incrementally keeps its position; distinct
    names are statistically independent.
    """

    def __init__(self, root_seed: int) -> None:
        self.root_seed = int(root_seed)
        self._streams: Dict[Tuple[Name, ...], np.random.Generator] = {}

    def stream(self, *names: Name) -> np.random.Generator:
        """The (cached) generator for the given stream name path."""
        key = tuple(names)
        if key not in self._streams:
            self._streams[key] = named_generator(self.root_seed, *names)
        return self._streams[key]
