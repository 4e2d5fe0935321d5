"""Ablations of the EDEA design decisions.

These go beyond the paper's printed figures: each ablation isolates one
architectural choice (dataflow, Non-Conv folding, direct transfer, PE
scale, ifmap-buffer size, operating point) and quantifies its effect with
the same models that reproduce the paper's numbers.
"""

import pytest

from repro.arch import ArchConfig, DSCAccelerator, EDEA_CONFIG
from repro.dse import LoopOrder, layer_access, table1_case
from repro.nn import MOBILENET_V1_CIFAR10_SPECS
from repro.power import DVFSModel
from repro.quant import network_nonconv_op_counts
from repro.sim import layer_latency


EDEA_TILING = table1_case(6, tn=2)


def test_bench_ablation_dataflow(benchmark):
    """La vs Lb at the chosen tiling: the selected dataflow must win."""

    def totals():
        la = lb = 0
        for spec in MOBILENET_V1_CIFAR10_SPECS:
            la += layer_access(spec, EDEA_TILING, LoopOrder.LA).total
            lb += layer_access(spec, EDEA_TILING, LoopOrder.LB).total
        return la, lb

    la, lb = benchmark(totals)
    print(f"\nAblation dataflow: La={la:,} vs Lb={lb:,} accesses "
          f"({100 * (lb - la) / lb:.1f}% saved by La)")
    assert la < lb


def test_bench_ablation_nonconv_folding(benchmark):
    """Operation savings of the merged Non-Conv unit."""
    counts = benchmark(
        network_nonconv_op_counts, MOBILENET_V1_CIFAR10_SPECS
    )
    print(f"\nAblation Non-Conv: {counts.unfolded_ops:,} ops unfolded -> "
          f"{counts.folded_ops:,} folded "
          f"({counts.reduction_percent:.0f}% fewer)")
    # the single multiply-add halves the elementwise work
    assert counts.reduction_percent == pytest.approx(50.0)
    assert counts.saved_ops > 1_000_000  # ~1.4M elements x 4 ops


def test_bench_ablation_direct_transfer(benchmark, full_workload):
    """Measured external-traffic saving of the intermediate buffer."""

    def run_both():
        layer = full_workload.qmodel.layers[6]
        x_q = full_workload.qmodel.layer_input(full_workload.images[:1], 6)[0]
        direct = DSCAccelerator(EDEA_CONFIG, direct_transfer=True)
        direct.run_layer(layer, x_q)
        spilled = DSCAccelerator(EDEA_CONFIG, direct_transfer=False)
        spilled.run_layer(layer, x_q)
        return (
            direct.memory.total_activation_accesses,
            spilled.memory.total_activation_accesses,
        )

    direct_acc, spilled_acc = benchmark(run_both)
    reduction = 100 * (spilled_acc - direct_acc) / spilled_acc
    print(f"\nAblation direct transfer (layer 6): {spilled_acc:,} -> "
          f"{direct_acc:,} external activation accesses "
          f"(-{reduction:.1f}%)")
    assert direct_acc < spilled_acc
    assert reduction > 20.0


@pytest.mark.parametrize("td,tk,expected_speedup_min", [
    (16, 16, 1.8), (8, 32, 1.5), (16, 32, 3.0),
])
def test_bench_ablation_pe_scaling(benchmark, td, tk, expected_speedup_min):
    """The paper's scaling claim: larger Td/Tk cuts network latency."""

    def cycles(config):
        return sum(
            layer_latency(spec, config).total_cycles
            for spec in MOBILENET_V1_CIFAR10_SPECS
        )

    scaled = benchmark(cycles, ArchConfig(td=td, tk=tk))
    base = cycles(EDEA_CONFIG)
    speedup = base / scaled
    print(f"\nAblation PE scaling Td={td}, Tk={tk}: "
          f"{base:,} -> {scaled:,} cycles ({speedup:.2f}x)")
    assert speedup >= expected_speedup_min


def test_bench_ablation_ifmap_buffer(benchmark):
    """Ifmap-buffer (max output tile) sensitivity: smaller buffers pay
    more 9-cycle initiations; beyond 8x8 nothing improves for CIFAR
    geometry (32x32 maps split evenly either way)."""

    def cycles(edge):
        config = ArchConfig(max_output_tile=edge)
        return sum(
            layer_latency(spec, config).total_cycles
            for spec in MOBILENET_V1_CIFAR10_SPECS
        )

    at_8 = benchmark(cycles, 8)
    at_2, at_4, at_16, at_32 = cycles(2), cycles(4), cycles(16), cycles(32)
    print(f"\nAblation ifmap buffer: tile 2->{at_2:,}  4->{at_4:,}  "
          f"8->{at_8:,}  16->{at_16:,}  32->{at_32:,} cycles")
    assert at_2 > at_4 > at_8
    assert at_16 < at_8  # fewer tile initiations on the 32/16 maps
    assert at_32 <= at_16


def test_bench_ablation_dvfs(benchmark):
    """Operating-point study around the published 0.8 V / 1 GHz point."""
    model = DVFSModel()

    def sweep():
        return model.sweep([0.5, 0.6, 0.7, 0.8, 0.9, 1.0])

    points = benchmark(sweep)
    nominal = model.operating_point(0.8)
    print("\nAblation DVFS (f_max at each voltage):")
    for p in points:
        print(f"  {p.voltage_v:.1f} V  {p.frequency_hz / 1e9:5.2f} GHz  "
              f"{p.energy_efficiency_tops_w:6.2f} TOPS/W")
    # anchored at the paper's point
    assert nominal.frequency_hz == pytest.approx(1e9)
    assert nominal.energy_efficiency_tops_w == pytest.approx(13.43)
    # lower voltage -> better energy efficiency, lower throughput
    low = model.operating_point(0.6)
    assert low.energy_efficiency_tops_w > nominal.energy_efficiency_tops_w
    assert low.throughput_factor < 1.0
    # higher voltage -> faster but less efficient
    high = model.operating_point(1.0)
    assert high.throughput_factor > 1.0
    assert high.energy_efficiency_tops_w < nominal.energy_efficiency_tops_w
