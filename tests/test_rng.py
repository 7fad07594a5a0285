"""Counter-based streams: pinned draws and stream-id validation."""

import pytest

from soekit.rng import child_seed, stream_rng


def test_stream_draws_are_pinned():
    # renumbering a stream or changing how it is keyed moves every seeded artifact
    assert stream_rng(0, "data", 5).integers(0, 2**31, size=3).tolist() == [2126435878, 1276914010, 459214310]
    assert stream_rng(402, "noise", 7, 1).standard_normal(3).tolist() == [
        3.1862286699866145, 0.5782869059535078, -0.2702485250446396]
    assert stream_rng(11, "lora").random(2).tolist() == [0.9952525435941956, 0.9642170196591495]
    assert stream_rng(3, "probe").integers(0, 1000, size=4).tolist() == [382, 817, 908, 600]


def test_child_seeds_are_pinned():
    assert child_seed(402, "eval", 3) == 17647543431520477784
    assert child_seed(0, "init") == 4881901421217228719
    assert child_seed(7, "probe", 1, 2) == 2848353482691532567


@pytest.mark.parametrize("fn", [stream_rng, child_seed])
def test_unknown_stream_rejected(fn):
    with pytest.raises(ValueError, match="unknown rng stream 'nope'"):
        fn(0, "nope", 1)
