"""One workload in one fresh process.

The process imports the program, builds the state its samples reuse and
notes the moment it was ready.  With ``--probe`` it stops there; otherwise it
runs whole measured rounds for at least ``--seconds`` seconds, checks every
output, and prints one JSON object as its last line.  ``run.py`` starts it;
run it directly only to debug a workload.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from itertools import combinations
from pathlib import Path
from statistics import median
from time import perf_counter
from types import SimpleNamespace

import checks
import references
import tracing

SRC = Path(__file__).resolve().parent.parent / "src"

# Sizes are part of each workload's definition.  A round is a batch of
# samples with ``counts`` cold counts spread evenly through it, plus in a
# traced run a traced re-draw of the batch's first ``traced`` samples.  Every
# run does whole rounds, at least ``min_rounds`` of them; the count metrics
# read those first rounds only, so they repeat exactly at a given seed.
WORKLOADS = {
    "exact": dict(path="exact", n=20, omega=20, connected=True,
                  counts=1, batch=150, traced=50, min_rounds=3),
    "bounded": dict(path="exact", n=40, omega=3, connected=False,
                    counts=2, batch=250, traced=100, min_rounds=4),
    "split": dict(path="split", n=1000, epsilon="1e-3",
                  counts=2, batch=14, traced=3, min_rounds=3),
}

# The uniformity check draws from the exact sampler at n = 4 with a fixed
# seed of its own, so its verdict is the same in every run.
UNIFORMITY_N = 4
UNIFORMITY_PER_GRAPH = 25
UNIFORMITY_SEED = 20230818
UNIFORMITY_ALPHA = 1e-3

TAIL_MIN_SAMPLES = 40


def derive_seed(*parts) -> int:
    """A 64-bit seed for one random stream of the run."""
    digest = hashlib.blake2b(repr(parts).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class Ops:
    """Attempted and failed operations; a failure prints its reason to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, what: str, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            self.failed += 1
            print(f"failed: {what}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None


class ExactPath:
    """``count`` and ``sample`` at a fixed (n, omega), on the exact engine."""

    def __init__(self, spec, lab):
        self.spec, self.lab = spec, lab
        self.n, self.omega, self.connected = spec["n"], spec["omega"], spec["connected"]
        self.argv = ["count", "--n", str(self.n), "--omega", str(self.omega)]
        if self.connected:
            self.argv.append("--connected")

    def _fill(self):
        ctx = self.lab.counting.CountingContext(self.n, self.omega)
        value = ctx.count_connected(self.n) if self.connected else ctx.count_all(self.n)
        return ctx, value

    def setup(self, seed: int) -> None:
        """Fill the context the samples reuse; no sample is drawn."""
        self.ctx, _ = self._fill()
        self.sampler = self.lab.sampling.ChordalSampler(self.ctx)

    def count(self, traced: bool, layers: dict) -> str:
        if not traced:
            out = io.StringIO()
            self.lab.cli.cmd_count(self.lab.cli.build_parser().parse_args(self.argv), out)
            return out.getvalue()
        t0 = perf_counter()
        ctx, value = self._fill()
        t1 = perf_counter()
        text = f"{value}\n"
        layers["cli.decimal_s"].append(perf_counter() - t1)
        layers["counting.fill_s"].append(t1 - t0)
        layers["counting.entries"] = sum(ctx.table_sizes().values())
        return text

    def draw(self, rng):
        if self.connected:
            return self.sampler.sample_connected(self.n, rng)
        return self.sampler.sample_chordal(self.n, rng)

    def work_done(self) -> int:
        return self.sampler.ops

    def check_sample(self, g, text: str) -> int:
        return checks.check_graph(g, text, self.n, self.omega, connected=self.connected)

    def trace_targets(self, iterations: list) -> list:
        accessors = [name for name in dir(self.ctx)
                     if name.startswith("count_") or name == "binomial"]
        return ([("counting", self.ctx, name) for name in accessors]
                + [("graphs", self.lab.sampling, name) for name in
                   ("LabeledGraph", "complete_graph", "glue", "phi_map", "relabel")])

    def prepare_references(self) -> None:
        if self.connected:
            self.connected_ref = dict(references.PUBLISHED_CONNECTED)
            self.count_ref = self.connected_ref[self.n]
        else:
            conn = references.treewidth2_connected(self.n)
            self.connected_ref = {k: conn[k] for k in range(1, self.n + 1)}
            self.all_ref = references.sets_of(conn)
            self.count_ref = self.all_ref[self.n]

    def check_count(self, text: str) -> None:
        checks.check_count(f"count at n = {self.n}", int(text), self.count_ref)

    def reference_checks(self) -> list:
        uniformity = [("uniformity at n = 4", self._check_uniformity)] if self.connected else []
        return [("reference counts", self._check_tables)] + uniformity

    def _check_tables(self) -> None:
        for k, want in self.connected_ref.items():
            if k <= self.n:
                checks.check_count(f"connected count at n = {k}",
                                   self.ctx.count_connected(k), want)
        if not self.connected:
            for k in range(self.n + 1):
                checks.check_count(f"count at n = {k}", self.ctx.count_all(k), self.all_ref[k])

    def _check_uniformity(self) -> dict:
        lab, n = self.lab, UNIFORMITY_N
        pairs = list(combinations(range(1, n + 1), 2))
        support = set()
        for mask in range(1 << len(pairs)):
            edges = [pair for i, pair in enumerate(pairs) if mask >> i & 1]
            if checks.is_chordal(checks.adjacency(n, edges)):
                support.add(frozenset(edges))
        sampler = lab.sampling.ChordalSampler(lab.counting.CountingContext(n, n))
        rng = lab.sampling.RandomStream(UNIFORMITY_SEED)
        keys = []
        for _ in range(UNIFORMITY_PER_GRAPH * len(support)):
            text = lab.graphs.to_edge_list_text(sampler.sample_chordal(n, rng))
            _, us, vs = checks.parse_edge_list(text)
            keys.append(frozenset(zip(map(min, us, vs), map(max, us, vs))))
        stat, p = checks.check_uniform(keys, support, UNIFORMITY_ALPHA)
        return {"uniformity_chi2": stat, "uniformity_p": p, "uniformity_samples": len(keys)}


class SplitPath:
    """``approx-count`` and ``approx-sample`` at a fixed (n, epsilon)."""

    def __init__(self, spec, lab):
        self.spec, self.lab = spec, lab
        self.n, self.epsilon = spec["n"], spec["epsilon"]
        self.argv = ["approx-count", "--n", str(self.n), "--epsilon", self.epsilon]

    def setup(self, seed: int):
        """Draw the first approximate sample, which builds the split plan;
        return it, to be checked after the process reports ready."""
        rng = self.lab.sampling.RandomStream(derive_seed("split", seed, "setup"))
        return self.draw(rng)

    def count(self, traced: bool, layers: dict) -> str:
        lab = self.lab
        if not traced:
            out = io.StringIO()
            lab.cli.cmd_approx_count(lab.cli.build_parser().parse_args(self.argv), out)
            return out.getvalue()
        tracer = tracing.Tracer()
        strata = [("splits.q_ge2_s", lab.splits, "split_count_q_ge2_truncated"),
                  ("splits.q0_s", lab.splits, "split_count_q0_truncated"),
                  ("splits.q1_s", lab.splits, "split_count_q1_truncated")]
        with tracer.installed(strata):
            value = lab.splits.approx_count_chordal(self.n, self.epsilon)
        t1 = perf_counter()
        text = f"{value}\n"
        layers["cli.decimal_s"].append(perf_counter() - t1)
        for layer, _, _ in strata:
            layers[layer].append(tracer.seconds[layer])
        return text

    def draw(self, rng):
        return self.lab.splits.approx_sample_chordal(self.n, self.epsilon, rng)

    def work_done(self) -> int:
        return 0

    def check_sample(self, g, text: str) -> int:
        return checks.check_graph(g, text, self.n, self.n, split=True)

    def trace_targets(self, iterations: list) -> list:
        splits = self.lab.splits
        return ([("graphs", splits, name)
                 for name in ("LabeledGraph", "complement", "complete_graph")]
                + [("splits.draw", splits, "sample_split_draw",
                    lambda draw: iterations.append(draw.iterations))])

    def prepare_references(self) -> None:
        self.full, self.upper_rest = references.split_bracket(self.n)
        self.eps = self.lab.splits.as_epsilon(self.epsilon)

    def check_count(self, text: str) -> None:
        checks.check_bracket(int(text), self.full, self.upper_rest, self.eps)

    def reference_checks(self) -> list:
        return []


PATHS = {"exact": ExactPath, "split": SplitPath}


def measure(work, spec: dict, seed: int, seconds: float, traced: bool, ops: Ops):
    """Whole rounds for at least ``seconds``; returns what they timed and counted."""
    lab = work.lab
    to_text = lab.graphs.to_edge_list_text
    m = SimpleNamespace(
        count_s=[], sample_s=[], draw_s=[], serialize_s=[], batch_rate=[], batches=[],
        count_texts=[], plain_traced_s=[], traced_s=[], lookup_s=[], graphs_s=[], self_s=[],
        layers={k: [] for k in ("counting.fill_s", "cli.decimal_s", "splits.q_ge2_s",
                                "splits.q0_s", "splits.q1_s")},
        samples=0, work=0, edges=0, traced=0, lookups=0, graph_calls=0, iterations=[],
        rounds=0)
    t_start = perf_counter()
    while m.rounds < spec["min_rounds"] or perf_counter() - t_start < seconds:
        rnd = m.rounds
        first_rounds = rnd < spec["min_rounds"]

        batch_seed = derive_seed(spec["name"], seed, "batch", rnd)
        rng = lab.sampling.RandomStream(batch_seed)
        digests = []
        batch_s = []

        def one_count():
            t0 = perf_counter()
            text = work.count(traced, m.layers)
            m.count_s.append(perf_counter() - t0)
            m.count_texts.append(text)

        def one_sample(i):
            work_before = work.work_done()
            t0 = perf_counter()
            g = work.draw(rng)
            t1 = perf_counter()
            text = to_text(g)
            t2 = perf_counter()
            batch_s.append(t2 - t0)
            m.sample_s.append(t2 - t0)
            m.draw_s.append(t1 - t0)
            m.serialize_s.append(t2 - t1)
            if i < spec["traced"]:
                digests.append(hashlib.sha1(text.encode()).digest())
                m.plain_traced_s.append(t2 - t0)
            edges = work.check_sample(g, text)
            if first_rounds:
                m.samples += 1
                m.work += work.work_done() - work_before
                m.edges += edges

        count_at = {k * spec["batch"] // spec["counts"] for k in range(spec["counts"])}
        for i in range(spec["batch"]):
            if i in count_at:
                ops.run(f"count before sample {i} in round {rnd}", one_count)
            ops.run(f"sample {i} in round {rnd}", one_sample, i)
        m.batches.append(batch_s)
        m.batch_rate.append(len(batch_s) / sum(batch_s))

        if traced:
            tracer = tracing.Tracer()
            rng = lab.sampling.RandomStream(batch_seed)
            iterations = []

            def one_traced(digest):
                tracer.reset()
                t0 = perf_counter()
                g = work.draw(rng)
                t1 = perf_counter()
                text = to_text(g)
                t2 = perf_counter()
                if hashlib.sha1(text.encode()).digest() != digest:
                    raise checks.CheckFailed("traced draw differs from the plain draw")
                inside = tracer.seconds["counting"] + tracer.seconds["graphs"]
                m.traced_s.append(t2 - t0)
                m.lookup_s.append(tracer.seconds["counting"])
                m.graphs_s.append(tracer.seconds["graphs"])
                m.self_s.append(t1 - t0 - inside)
                if first_rounds:
                    m.traced += 1
                    m.lookups += tracer.calls["counting"]
                    m.graph_calls += tracer.calls["graphs"]
            with tracer.installed(work.trace_targets(iterations)):
                for digest in digests:
                    ops.run(f"traced sample in round {rnd}", one_traced, digest)
            if first_rounds:
                m.iterations.extend(iterations)
        m.rounds += 1
    return m


def tail(batches: list[list[float]]) -> float:
    """Median over the run of the highest order statistic with at least ten
    samples above it, taken per batch, or per run of consecutive batches
    where a batch has fewer than TAIL_MIN_SAMPLES samples.

    A tail per batch keeps one slow stretch of the machine from setting the
    whole run's tail.
    """
    pools, pool = [], []
    for batch in batches:
        pool = pool + batch
        if len(pool) >= TAIL_MIN_SAMPLES:
            pools.append(pool)
            pool = []
    if not pools:
        raise ValueError(f"{len(pool)} samples give no tail; the workload needs "
                         f"at least {TAIL_MIN_SAMPLES}")
    return median(sorted(p)[len(p) - 11] for p in pools)


def per_sample(total: int, samples: int) -> float:
    return total / samples if samples else 0.0


def median_or_zero(values: list[float]) -> float:
    return median(values) if values else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="stop once the workload's state is built")
    args = parser.parse_args()
    spec = dict(WORKLOADS[args.workload], name=args.workload)

    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import chordal_lab.cli as cli
    from chordal_lab import counting, graphs, sampling, splits
    import_s = perf_counter() - t0
    cli.allow_huge_decimal_output()
    lab = SimpleNamespace(cli=cli, counting=counting, graphs=graphs,
                          sampling=sampling, splits=splits)
    work = PATHS[spec["path"]](spec, lab)
    t0 = perf_counter()
    first = work.setup(args.seed)
    ready = {"ready_at": time.monotonic(), "import_s": import_s,
             "state_s": perf_counter() - t0}
    if args.probe:
        print(json.dumps({"ready": ready}))
        return 0

    ops = Ops()
    if first is not None:
        ops.run("set-up sample", work.check_sample, first, lab.graphs.to_edge_list_text(first))
        del first
    m = measure(work, spec, args.seed, args.seconds, bool(args.trace), ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    info = {"rounds": m.rounds, "samples": len(m.sample_s), "counts": len(m.count_s),
            "batch_median_ms": [median(b) * 1000 for b in m.batches]}
    ops.run("references", work.prepare_references)
    for i, text in enumerate(m.count_texts):
        ops.run(f"count {i} against its reference", work.check_count, text)
    for what, check in work.reference_checks():
        info.update(ops.run(what, check) or {})

    ms = 1000.0
    if not args.trace:
        metrics = {
            "count_s": median(m.count_s),
            "sample_ms": median(m.sample_s) * ms,
            "sample_tail_ms": tail(m.batches) * ms,
            "samples_per_s": median(m.batch_rate),
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        exact = spec["path"] == "exact"
        metrics = {
            "counting.fill_s": median_or_zero(m.layers["counting.fill_s"]),
            "counting.entries": m.layers.get("counting.entries", 0),
            "counting.lookups_per_sample": per_sample(m.lookups, m.traced),
            "counting.lookup_ms": median_or_zero(m.lookup_s) * ms,
            "sampling.draw_ms": median(m.draw_s) * ms if exact else 0.0,
            "sampling.ops_per_sample": per_sample(m.work, m.samples),
            "sampling.self_ms": median_or_zero(m.self_s) * ms if exact else 0.0,
            "graphs.calls_per_sample": per_sample(m.graph_calls, m.traced),
            "graphs.assembly_ms": median_or_zero(m.graphs_s) * ms,
            "graphs.edges_per_sample": per_sample(m.edges, m.samples),
            "graphs.serialize_ms": median(m.serialize_s) * ms,
            "splits.q_ge2_s": median_or_zero(m.layers["splits.q_ge2_s"]),
            "splits.q0_s": median_or_zero(m.layers["splits.q0_s"]),
            "splits.q1_s": median_or_zero(m.layers["splits.q1_s"]),
            "splits.draw_ms": 0.0 if exact else median(m.draw_s) * ms,
            "splits.iterations_per_draw": per_sample(sum(m.iterations), len(m.iterations)),
            "cli.decimal_s": median_or_zero(m.layers["cli.decimal_s"]),
        }
        info["trace_overhead_pct"] = (median(m.traced_s) / median(m.plain_traced_s) - 1) * 100
    raw = {name: getattr(m, name) for name in (
        "count_s", "sample_s", "draw_s", "serialize_s", "batch_rate", "traced_s",
        "lookup_s", "graphs_s", "self_s", "layers")}
    print(json.dumps({"ready": ready, "attempted": ops.attempted, "failed": ops.failed,
                      "metrics": metrics, "info": info, "raw": raw}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
