"""Benchmark workloads: frozen scenario dicts and the seed rule.

``scenarios.json`` holds every scenario the benchmark runs, fully
expanded, so that a change to the package's bundled configs or to its
suite merge rules cannot change the benchmark's inputs. The suites were
expanded from ``strong_scaling``, ``weak_scaling_1d`` and
``helmholtz_k_sweep`` exactly as ``ddmlab suite`` expands them.
"""

import copy
import json
from pathlib import Path

DEFAULT_SEED = 0

_TABLE = json.loads(Path(__file__).with_name("scenarios.json").read_text())

NAMES = tuple(_TABLE)

# The cost of a greedy graph partition, and of the GenEO setup that follows
# it, moves by tens of percent from one partition seed to the next. Summing
# over several seeds per pass keeps a workload's cost steady across
# workload seeds.
PARTITION_SEEDS = {"fem_geneo": 8}


def scenarios(workload, seed):
    """The workload's scenario dicts for ``seed``.

    The seed sets ``partition.seed`` of graph-partitioned scenarios;
    structured scenarios have no random input and ignore it. A workload
    listed in PARTITION_SEEDS runs each graph-partitioned scenario under
    that many partition seeds, ``k * seed`` to ``k * seed + k - 1``.
    """
    k = PARTITION_SEEDS.get(workload, 1)
    out = []
    for cfg in _TABLE[workload]:
        if cfg["partition"]["kind"] != "graph":
            out.append(copy.deepcopy(cfg))
            continue
        for j in range(k):
            point = copy.deepcopy(cfg)
            point["partition"]["seed"] = k * seed + j
            if k > 1:
                point["name"] = f"{cfg['name']}-p{j}"
            out.append(point)
    return out
