"""Fig. 7 / Eqs. 1-2: pipeline timing of the dual engines."""

from repro.eval import run_experiment
from repro.nn import MOBILENET_V1_CIFAR10_SPECS
from repro.sim import layer_latency


def test_bench_fig7_trace(benchmark):
    result = benchmark(run_experiment, "fig7")
    print()
    print(result.text)
    # "the initiation takes 9 clock cycles before generating the first
    # PWC output result"
    assert result.data["first_output_cycle"] == 9


def test_bench_eq1_eq2_whole_network(benchmark):
    def total_cycles():
        return sum(
            layer_latency(spec).total_cycles
            for spec in MOBILENET_V1_CIFAR10_SPECS
        )

    cycles = benchmark(total_cycles)
    # sum of the paper-implied per-layer latencies (checked by `repro report`)
    assert cycles == 92_784
