"""Counter-based random streams with explicit splitting.

All randomness in the repo flows through Philox generators keyed by
(master seed, stream id, *indices). Philox is counter-based, so every
stream is independent and reproducible regardless of draw order in other
streams. Stream ids are fixed here; callers split further by passing
indices (e.g. sample id, training step).
"""

import numpy as np

# Fixed stream ids. Adding a stream is fine; renumbering breaks reproducibility.
STREAMS = {
    "data": 0,      # scene generation, one substream per sample index
    "init": 1,      # parameter initialisation, one substream per model
    "noise": 2,     # diffusion noise / timestep draws, one substream per step
    "probe": 3,     # probe classifier data + training
    "eval": 4,      # evaluation-time noise, one substream per sample
    "lora": 5,      # adapter initialisation
}


def _seed_sequence(seed: int, stream: str, indices) -> np.random.SeedSequence:
    if stream not in STREAMS:
        raise ValueError(f"unknown rng stream {stream!r}; known: {sorted(STREAMS)}")
    return np.random.SeedSequence(entropy=int(seed), spawn_key=(STREAMS[stream], *map(int, indices)))


def stream_rng(seed: int, stream: str, *indices: int) -> np.random.Generator:
    """Generator for `stream` derived from `seed`; extra indices split further."""
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, stream, indices)))


def child_seed(seed: int, stream: str, *indices: int) -> int:
    """Derived integer seed for APIs that take a plain seed."""
    return int(_seed_sequence(seed, stream, indices).generate_state(1, dtype=np.uint64)[0])
