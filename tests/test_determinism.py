"""Determinism by running twice: every artifact of the small pipeline is
byte-identical across two runs that differ in everything a
nondeterministic source could show through.

This file is both the test and the script it runs. The test starts the
script twice, concurrently, in two subprocesses:

* run A: ``PYTHONHASHSEED=1``, one shard and one worker (K=1);
* run B: another hash seed, K=3 for ``save --gen-shards`` and
  ``detect --workers``, another working directory, and a
  ``sitecustomize`` that reverses the order of ``os.listdir``,
  ``os.scandir`` (hence ``os.walk``) and ``glob.glob``.

Each run saves a streamgen bundle, detects over it (findings JSONL, the
JSON table and a metrics textfile), writes ``PipelineResult.to_json``,
replays the bundle through the stream engine with ``--verify`` (and once
more in text mode for the live finding feed), and sends a fixed request
list through the serving app. It also writes
``to_json`` for a world from the day-loop simulator, the other
generator. The test then
compares every bundle file and every artifact byte for byte, except for
the few fields named in ``VOLATILE_*`` below, each with its reason.

Run the script by hand with ``python tests/test_determinism.py OUT K``.
"""

from __future__ import annotations

import contextlib
import filecmp
import json
import os
import subprocess
import sys
from fnmatch import fnmatch

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))

SEED = "7"
SCALE = "0.02"
SIMULATED_SCALE = 0.05

#: Fixed serve requests (path, query); the domain probes are appended
#: from the index so they name real findings.
REQUESTS = (
    ("/health", ""),
    ("/v1/aggregates", "by=class"),
    ("/v1/aggregates", "by=issuer"),
    ("/v1/aggregates", "by=year"),
    ("/v1/survival", ""),
    ("/v1/whatif/caps", "days=45,90,215"),
    ("/v1/whatif/caps", "days=47"),
    ("/v1/domains/zzz-no-such-domain.example", ""),
    ("/v1/aggregates", "by=volume"),
)

#: Metric samples left out of the comparison, each for its reason:
VOLATILE_METRICS = (
    # wall-clock durations and their histogram buckets/sums/counts
    "*_seconds*",
    # resident memory depends on the process layout, not on the data
    "*rss*",
    # the phase label names the code path (detect_detectors for K=1,
    # detect_shards for K>1) by design; the values are compared below
    "repro_progress_*",
)
#: ``detect --format json`` keys that describe the shard layout (K).
VOLATILE_DETECT_KEYS = ("shard_stats",)
#: ``watch --format json`` stats keys holding wall-clock durations.
VOLATILE_WATCH_STATS = ("handler_seconds_by_type",)
#: ``/health`` index keys holding wall-clock durations.
VOLATILE_HEALTH_INDEX = ("build_seconds",)

SITECUSTOMIZE = '''\
"""Reverse every directory listing, so code that trusts listing order
produces different bytes than it does in an unpatched run."""
import glob
import os

_listdir, _scandir, _glob = os.listdir, os.scandir, glob.glob


class _Reversed:
    def __init__(self, entries):
        self._entries = list(entries)[::-1]

    def __iter__(self):
        return iter(self._entries)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def close(self):
        pass


def listdir(path="."):
    return _listdir(path)[::-1]


def scandir(path="."):
    with _scandir(path) as entries:
        return _Reversed(entries)


def glob_glob(*args, **kwargs):
    return _glob(*args, **kwargs)[::-1]


os.listdir, os.scandir, glob.glob = listdir, scandir, glob_glob
'''


# -- the script --------------------------------------------------------------


def _cli(argv, stdout_path=None):
    from repro.cli import main

    with contextlib.ExitStack() as stack:
        if stdout_path is not None:
            handle = stack.enter_context(open(stdout_path, "w", encoding="utf-8"))
            stack.enter_context(contextlib.redirect_stdout(handle))
        code = main(argv)
    if code != 0:
        raise SystemExit(f"repro {' '.join(argv)} exited {code}")


def run_pipeline(out: str, k: int) -> None:
    """Write every artifact of one small pipeline run under *out*."""
    from repro.core.pipeline import MeasurementPipeline
    from repro.data import open_bundle
    from repro.ecosystem.simulator import simulate_world
    from repro.ecosystem.timeline import DEFAULT_TIMELINE
    from repro.ecosystem.workload import WorldConfig
    from repro.serve import FindingsIndex, call_app, create_app

    os.makedirs(out, exist_ok=True)
    os.chdir(out)
    world_args = ["--seed", SEED, "--scale", SCALE]
    shards = str(k)
    _cli(["save", "--dir", "bundle", "--gen-shards", shards] + world_args)
    _cli(["detect", "--bundle", "bundle", "--workers", shards,
          "--format", "json", "--metrics-out", "metrics.prom",
          "--save-findings", "findings.jsonl"] + world_args,
         stdout_path="detect.json")
    _cli(["watch", "--bundle", "bundle", "--verify", "--format", "json"]
         + world_args, stdout_path="watch.json")
    _cli(["watch", "--bundle", "bundle"] + world_args, stdout_path="watch.txt")

    # One worker: a sharded result also carries its shard layout and
    # timings (``shard_stats``); the sharded findings are compared through
    # ``detect --workers K`` above.
    result = MeasurementPipeline.run_bundle(
        open_bundle("bundle"),
        revocation_cutoff_day=DEFAULT_TIMELINE.revocation_cutoff,
    )
    result.to_json("result.json")

    world = simulate_world(WorldConfig(seed=int(SEED)).scaled(SIMULATED_SCALE))
    MeasurementPipeline.run_bundle(
        world.to_bundle(),
        revocation_cutoff_day=world.config.timeline.revocation_cutoff,
    ).to_json("simulated.json")

    app = create_app(FindingsIndex(result))
    domains = app.index.domains()
    requests = list(REQUESTS) + [
        (f"/v1/domains/{name}", "") for name in domains[:3] + domains[-2:]
    ]
    with open("serve.jsonl", "w", encoding="utf-8") as handle:
        for path, query in requests:
            response = call_app(app, path, query=query)
            handle.write(json.dumps({
                "path": path,
                "query": query,
                "status": response.status,
                "body": response.body.decode("utf-8"),
            }, sort_keys=True) + "\n")


# -- the test ----------------------------------------------------------------


def _start(out: str, k: int, hash_seed: str, cwd: str, pythonpath: str):
    os.makedirs(cwd, exist_ok=True)
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=pythonpath)
    return subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), out, str(k)],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )


def _metric_samples(path: str):
    samples = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip() or line.startswith("#"):
                continue
            key, _, value = line.rstrip("\n").rpartition(" ")
            name = key.split("{", 1)[0]
            if any(fnmatch(name, pattern) for pattern in VOLATILE_METRICS):
                continue
            samples[key] = value
    return samples


def _progress_values(path: str):
    """``repro_progress_*`` values with the K-dependent phase label dropped."""
    values = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("repro_progress_"):
                key, _, value = line.rstrip("\n").rpartition(" ")
                values.append((key.split("{", 1)[0], value))
    return sorted(values)


def _load_without(path: str, keys, parent=None):
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    holder = payload if parent is None else payload[parent]
    for key in keys:
        holder.pop(key, None)
    return payload


def _feed_lines(path: str):
    """The live feed of a text-mode ``watch``: finding lines and their
    advisories (the metrics table around them holds latencies)."""
    with open(path, encoding="utf-8") as handle:
        return [
            line for line in handle
            if line.startswith("[") or line.lstrip().startswith("advisory:")
        ]


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _serve_responses(path: str):
    """Every recorded response; ``/health`` without its timing keys."""
    responses = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if record["path"] == "/health":
                body = json.loads(record["body"])
                for key in VOLATILE_HEALTH_INDEX:
                    body["index"].pop(key)
                record["body"] = body
            responses.append(record)
    return responses


def test_two_differently_perturbed_runs_write_identical_artifacts(tmp_path):
    shuffle_dir = tmp_path / "shuffle"
    shuffle_dir.mkdir()
    (shuffle_dir / "sitecustomize.py").write_text(SITECUSTOMIZE)
    run_a, run_b = str(tmp_path / "a"), str(tmp_path / "b" / "nested")
    procs = [
        _start(run_a, 1, "1", str(tmp_path), SRC),
        _start(run_b, 3, "12345", str(tmp_path / "elsewhere"),
               os.pathsep.join([str(shuffle_dir), SRC])),
    ]
    for proc in procs:
        _stdout, stderr = proc.communicate(timeout=300)
        assert proc.returncode == 0, stderr[-4000:]

    def both(name):
        return os.path.join(run_a, name), os.path.join(run_b, name)

    bundle_a, bundle_b = both("bundle")
    names = sorted(os.listdir(bundle_a))
    assert names == sorted(os.listdir(bundle_b))
    assert any(name.endswith(".seg") for name in names)
    _match, mismatch, errors = filecmp.cmpfiles(
        bundle_a, bundle_b, names, shallow=False
    )
    assert (mismatch, errors) == ([], []), "bundle files differ"

    for name in ("findings.jsonl", "result.json", "simulated.json"):
        first, second = both(name)
        assert _read(first) == _read(second), f"{name} differs"

    first, second = both("serve.jsonl")
    responses = _serve_responses(first)
    assert len(responses) == len(REQUESTS) + 5
    assert responses == _serve_responses(second)

    first, second = both("detect.json")
    assert (_load_without(first, VOLATILE_DETECT_KEYS)
            == _load_without(second, VOLATILE_DETECT_KEYS))

    first, second = both("watch.json")
    watch_a = _load_without(first, VOLATILE_WATCH_STATS, parent="stats")
    assert watch_a["verified_equivalent"] is True
    assert watch_a == _load_without(second, VOLATILE_WATCH_STATS,
                                    parent="stats")
    first, second = both("watch.txt")
    feed = _feed_lines(first)
    assert feed and feed == _feed_lines(second)

    first, second = both("metrics.prom")
    samples = _metric_samples(first)
    assert any(key.startswith("repro_findings_total") for key in samples)
    assert samples == _metric_samples(second)
    assert _progress_values(first) == _progress_values(second)


if __name__ == "__main__":
    run_pipeline(sys.argv[1], int(sys.argv[2]))
