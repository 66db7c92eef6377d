"""Names the benchmark harness in ``perfbench/`` reads or wraps by name.

Its traced runs replace the wrapped module attributes from outside the
program, and its workloads call the others, so removing or renaming one (for
instance an import that looks unused) would break every benchmark run without
any other test failing.
"""

import chordal_lab.cli as cli
import chordal_lab.graphs as graphs
import chordal_lab.sampling as sampling
import chordal_lab.splits as splits
from chordal_lab.counting import CountingContext

WRAPPED = {
    sampling: ["LabeledGraph", "complete_graph", "glue", "phi_map", "relabel"],
    splits: ["LabeledGraph", "complement", "complete_graph", "sample_split_draw",
             "split_count_q0_truncated", "split_count_q1_truncated",
             "split_count_q_ge2_truncated"],
    cli: ["allow_huge_decimal_output"],
}

CALLED = {
    CountingContext: ["count_all", "count_connected", "table_sizes"],
    cli: ["build_parser", "cmd_approx_count", "cmd_count"],
    splits: ["approx_count_chordal", "approx_sample_chordal", "as_epsilon"],
    graphs: ["to_edge_list_text"],
    sampling: ["ChordalSampler", "RandomStream"],
}


def test_benchmark_names_exist():
    missing = [f"{owner.__name__}.{name}" for table in (WRAPPED, CALLED)
               for owner, names in table.items()
               for name in names if not callable(getattr(owner, name, None))]
    assert missing == []
    sampler = sampling.ChordalSampler(CountingContext(4, 4))
    assert sampler.ops == 0
    sampler.sample_chordal(4, sampling.RandomStream(1))
    assert sampler.ops > 0
    # The exact workload draws connected graphs.
    ops = sampler.ops
    sampler.sample_connected(4, sampling.RandomStream(1))
    assert sampler.ops > ops


def test_one_shot_split_draws_certify_their_windows_once(monkeypatch):
    # The ``split`` workload draws through the one-shot approx_sample_chordal,
    # which decides its path and builds its sampler on every call.  The window
    # cache is what keeps each draw (about 35 ms at n = 1000) from certifying
    # its windows again (about 0.03 s there).  Removing that cache (ROADMAP
    # item 11) waits for a benchmark change that draws through approx_sampler.
    calls = []
    windows = splits.split_windows

    def counted(n, eps):
        calls.append((n, eps))
        return windows(n, eps)

    monkeypatch.setattr(splits, "split_windows", counted)
    splits._split_plan.cache_clear()
    try:
        for seed in (1, 2):
            splits.approx_sample_chordal(120, "1e-2", sampling.RandomStream(seed))
    finally:
        splits._split_plan.cache_clear()
    assert len(calls) == 1
