"""Golden pins for the generated datasets and their evaluation inputs.

Every simulated digest starts from these graphs, so a builder edit that
changes one bit of a CSR array, the BFS source or an evaluation
partition moves every result downstream.  One sha256 per dataset covers
``indptr``, ``indices``, ``n_global``, ``bfs_source`` and the
``get_partition`` owner arrays for 2, 4 and 8 GPUs.  A legitimate
change to a generator re-records these values in the same commit.
"""

import hashlib

import numpy as np
import pytest

from repro.graph import DATASETS, bfs_source, load
from repro.harness.runner import get_partition

GOLDEN = {
    "soc-livejournal1": "c9e5ada579dd542e44526b215d2102cfcaef291dad0a9631e236a6342aa23256",
    "hollywood-2009": "a98f1b770be056489c608d1688de99c7f4d839f5d1ee42d9fca1dda31be552a5",
    "indochina-2004": "8984d6ce4b82a7e48f0911ddb3b51f9a6456515113f541606c799ed33d1fb3f0",
    "twitter50": "d7a69b5da4fda9e757d09e98ae89158957c22618d99ebd26acd4ca3185c49ab5",
    "road-usa": "a6b31092289f6204e9c627e3d944ecd6b3676e4c28299b15b4ce411a75a08c9a",
    "osm-eur": "89698ae3098ade90a05e2365e6f41eda567045238107b7138cbd26995ed855ec",
}


def dataset_digest(name: str) -> str:
    graph = load(name)
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(graph.indptr, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(graph.indices, dtype=np.int32).tobytes())
    h.update(np.int64(graph.n_global).tobytes())
    h.update(np.int64(bfs_source(name)).tobytes())
    for n_gpus in (2, 4, 8):
        owner = get_partition(name, n_gpus).owner
        h.update(np.ascontiguousarray(owner, dtype=np.int32).tobytes())
    return h.hexdigest()


def test_every_dataset_is_pinned():
    assert sorted(GOLDEN) == sorted(DATASETS)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_dataset_inputs_match_golden(name):
    assert dataset_digest(name) == GOLDEN[name]
