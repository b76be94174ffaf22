"""Same decisions: every corpus scenario reruns to its committed record.

``corpus.json`` holds 52 scenarios, each beside the run record it gave
when the file was written: every benchmark scenario (the fem_geneo graph
scenarios at partition seeds 0 to 7) and every bundled config and suite
point. The test reruns each scenario dict and names every difference by
scenario and field, with ``timings`` and ``machine`` left out:

* every field that is not a float is compared exactly: subdomain sizes,
  the local factor, coarse columns per subdomain, iterations,
  ``converged``, every bound record's ``satisfied``, the scenario and its
  hash;
* floats agree to ``RTOL`` relative: a residual history entry relative to
  the history's first entry ``||r0||``, the relative residuals (already
  divided by ``||b||``) absolutely, an entry of any other list relative
  to the list's largest magnitude, any other float relative to itself.

A change that moves a record writes the file again, in the same commit,
and says which records moved and why::

    PYTHONPATH=src python tests/test_corpus.py

The writer reads the benchmark's scenarios from ``perfbench/``; the test
reads only ``corpus.json``.
"""

import json
import math
import sys
from pathlib import Path

from ddmlab import bench

CORPUS = Path(__file__).with_name("corpus.json")
RTOL = 1e-10
# non-deterministic parts of a record
VOLATILE = ("timings", "machine")
# residuals already divided by ||b||
RELATIVE = ("solve.final_relres", "solve.true_final_relres")
HISTORY = "solve.residual_history"


def corpus_scenarios():
    """``(id, scenario dict)`` of every corpus scenario, from the benchmark and the configs."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    out = [(f"perfbench/{name}/{cfg['name']}", cfg)
           for name in workloads.NAMES for cfg in workloads.scenarios(name, 0)]
    for file in bench.bundled_names():
        config = bench.load_bundled(file)
        stem = file.removesuffix(".json")
        if "sweep" not in config:
            out.append((f"configs/{stem}", config))
            continue
        # each point as run_suite merges it
        for entry in config["sweep"]:
            point = bench.merge_config(config["base"], entry)
            point["name"] = entry["name"]
            out.append((f"configs/{stem}/{entry['name']}", point))
    return out


def record_of(scenario):
    """The run record of ``scenario`` without its volatile parts, as JSON reads it back."""
    record = bench.run_scenario(scenario)
    for key in VOLATILE:
        del record[key]
    return json.loads(json.dumps(record))


def floats(value):
    if isinstance(value, float):
        yield value
    elif isinstance(value, list):
        for v in value:
            yield from floats(v)


def differences(got, want, path="", scale=None, r0=None):
    """Every difference of record ``got`` from ``want``, as ``field: message`` lines.

    ``scale`` is the magnitude a float's tolerance is relative to, set by
    the enclosing list; None means the float's own. ``r0`` is the first
    entry of ``want``'s residual history.
    """
    if r0 is None:
        history = want.get("solve", {}).get("residual_history") or [1.0]
        r0 = history[0]
    if isinstance(want, float) and isinstance(got, float):
        if path in RELATIVE:
            scale = 1.0
        ref = abs(want) if scale is None else scale
        if got == want or (math.isnan(got) and math.isnan(want)) or abs(got - want) <= RTOL * ref:
            return []
        return [f"{path}: {got!r} != {want!r} (tolerance {RTOL} x {ref:.3g})"]
    if type(got) is not type(want):
        return [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, dict):
        if got.keys() != want.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [line for key in want
                for line in differences(got[key], want[key], f"{path}.{key}".lstrip("."),
                                        None, r0)]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        if scale is None:
            scale = r0 if path == HISTORY else max(map(abs, floats(want)), default=0.0)
        return [line for i, (g, w) in enumerate(zip(got, want))
                for line in differences(g, w, f"{path}[{i}]", scale, r0)]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def test_corpus_records_are_unchanged():
    entries = json.loads(CORPUS.read_text())
    assert len(entries) == 52
    lines = []
    for entry in entries:
        try:
            got = record_of(entry["scenario"])
        except bench.ScenarioError as err:
            lines.append(f"{entry['id']}: {err}")
            continue
        lines += [f"{entry['id']}: {line}" for line in differences(got, entry["record"])]
    assert not lines, f"{len(lines)} differences:\n" + "\n".join(lines[:40])


def test_differences_name_the_scenario_field():
    want = {"solve": {"iterations": 5, "converged": True, "final_relres": 1e-7,
                      "residual_history": [2.0, 1.0, 1e-6]},
            "spectrum": {"eigenvalues": [[4.0, 0.0], [1e-3, 0.0]],
                         "records": [{"satisfied": True, "measured": 3.0}]},
            "coarse_per_subdomain": [1, 2], "scenario": {"name": "s"}}
    assert differences(want, want) == []
    moved = json.loads(json.dumps(want))
    # within tolerance: 1e-11 of ||r0|| on a tiny history entry, of the
    # largest eigenvalue on a small one, and 1e-11 on a relative residual
    moved["solve"]["residual_history"][2] += 2e-11
    moved["spectrum"]["eigenvalues"][1][0] += 4e-11
    moved["solve"]["final_relres"] += 1e-11
    assert differences(moved, want) == []
    moved["solve"]["iterations"] = 6
    moved["solve"]["residual_history"][1] += 1e-9
    moved["spectrum"]["records"][0]["satisfied"] = False
    moved["spectrum"]["records"][0]["measured"] = 3.0 * (1 + 1e-9)
    moved["coarse_per_subdomain"] = [1, 2.0]
    moved["scenario"]["name"] = "t"
    assert [line.split(":")[0] for line in differences(moved, want)] == [
        "solve.iterations", "solve.residual_history[1]", "spectrum.records[0].satisfied",
        "spectrum.records[0].measured", "coarse_per_subdomain[1]", "scenario.name"]


if __name__ == "__main__":
    entries = [{"id": name, "scenario": cfg, "record": record_of(cfg)}
               for name, cfg in corpus_scenarios()]
    CORPUS.write_text("[\n" + ",\n".join(json.dumps(e, separators=(",", ":")) for e in entries)
                      + "\n]\n")
    print(f"wrote {len(entries)} records to {CORPUS}")
