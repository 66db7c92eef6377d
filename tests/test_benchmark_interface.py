"""Names the benchmark harness in ``perfbench/`` reads or wraps by name.

Its traced runs replace these module attributes from outside the program, so
removing one (for instance an import that looks unused) would break every
traced benchmark run without any other test failing.
"""

import chordal_lab.cli as cli
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


def test_benchmark_names_exist():
    missing = [f"{module.__name__}.{name}" for module, names in WRAPPED.items()
               for name in names if not callable(getattr(module, name, None))]
    assert missing == []
    sampler = sampling.ChordalSampler(CountingContext(4, 4))
    assert sampler.ops == 0
    sampler.sample_chordal(4, sampling.RandomStream(1))
    assert sampler.ops > 0
