"""Published numbers from the EDEA paper, kept in one place.

Every figure/table benchmark prints its measured values next to these
reference values, and ``repro report`` (:mod:`repro.eval.summary`) checks
every reproduced claim against them.  Sources are
the paper's text and figures (SOCC 2024 camera-ready as posted on arXiv).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "PAPER_FIG12_EE_TOPS_W",
    "PAPER_FIG13_THROUGHPUT_GOPS",
    "PAPER_FIG11_LAYER12_ZEROS",
    "PAPER_FIG3_REDUCTION",
    "PAPER_HEADLINE",
    "SotaWork",
    "SOTA_WORKS",
    "EDEA_TABLE3_ROW",
]

#: Fig. 12: per-layer energy efficiency in TOPS/W (layers 0..12).
PAPER_FIG12_EE_TOPS_W = [
    10.89, 8.70, 9.07, 9.36, 9.69, 9.81, 9.74,
    11.99, 12.51, 12.50, 13.43, 10.77, 13.38,
]

#: Fig. 13: per-layer throughput in GOPS (layers 0..12).
PAPER_FIG13_THROUGHPUT_GOPS = [
    1024.0, 1024.0, 1024.0, 1024.0, 1024.0,
    973.55, 973.55, 973.55, 973.55, 973.55, 973.55,
    905.64, 905.64,
]

#: Fig. 11 (text): layer 12 zero percentages for DWC and PWC activations.
PAPER_FIG11_LAYER12_ZEROS = {"dwc": 0.974, "pwc": 0.953}

#: Fig. 3 (text): intermediate-access elimination statistics.
PAPER_FIG3_REDUCTION = {
    "min_percent": 15.4,
    "max_percent": 46.9,
    "total_percent": 34.7,
}

#: Abstract / Section IV headline numbers.
PAPER_HEADLINE = {
    "peak_ee_tops_w": 13.43,
    "peak_ee_layer": 10,
    "peak_throughput_gops": 1024.0,
    "throughput_at_peak_ee_gops": 973.55,
    "average_ee_tops_w": 11.13,
    "average_throughput_gops": 981.42,
    "layer1_power_w": 0.1177,
    "layer12_power_w": 0.0677,
    "lowest_ee_tops_w": 8.70,
    "lowest_ee_layer": 1,
    "area_mm2": 0.58,
    "area_efficiency_gops_mm2": 1678.53,
    "clock_ghz": 1.0,
    "pe_count": 800,
}


@dataclass(frozen=True)
class SotaWork:
    """One comparison row of Table III.

    ``normalized_*`` hold the paper's published values after scaling to
    22 nm / 0.8 V / 8 bit with the methodology of its reference [19].
    Throughput/efficiency entries for 16-bit works are the published raw
    values; the ``(precision/8)²`` ops factor is applied separately.
    """

    name: str
    venue: str
    tech_nm: float
    precision_bits: int
    voltage_v: float
    pe_count: int
    benchmark: str
    conv_type: str
    power_w: float
    frequency_mhz: float
    area_mm2: float
    throughput_gops: float
    energy_efficiency_tops_w: float
    area_efficiency_gops_mm2: float
    normalized_ee_tops_w: float
    normalized_ae_gops_mm2: float


SOTA_WORKS: list[SotaWork] = [
    SotaWork(
        name="Chen et al. [16]",
        venue="ISVLSI'19",
        tech_nm=65, precision_bits=8, voltage_v=1.08, pe_count=256,
        benchmark="MobileNetV1", conv_type="DWC+PWC",
        power_w=0.0554, frequency_mhz=100, area_mm2=3.24,
        throughput_gops=51.2,
        energy_efficiency_tops_w=0.92,
        area_efficiency_gops_mm2=15.8,
        normalized_ee_tops_w=7.73,
        normalized_ae_gops_mm2=266.86,
    ),
    SotaWork(
        name="Hsiao et al. [17]",
        venue="ICCE-TW'21",
        tech_nm=40, precision_bits=16, voltage_v=0.9, pe_count=128,
        benchmark="MobileNetV1", conv_type="DWC+PWC",
        power_w=0.1125, frequency_mhz=200, area_mm2=2.168,
        throughput_gops=38.8,
        energy_efficiency_tops_w=0.34,
        area_efficiency_gops_mm2=17.9,
        # Paper prints "1.08 (4.32)" / "72.53 (290.12)" where the
        # parenthesised values are additionally normalized to 8 bit; we
        # store those since every cross-work factor is quoted at 8 bit
        # (13.43 / 4.32 = the paper's 3.11x claim).
        normalized_ee_tops_w=4.32,
        normalized_ae_gops_mm2=290.12,
    ),
    SotaWork(
        name="Jung et al. [18]",
        venue="TCASI'24",
        tech_nm=28, precision_bits=8, voltage_v=0.9, pe_count=288,
        benchmark="DTN", conv_type="SC+DSC",
        power_w=0.0436, frequency_mhz=200, area_mm2=1.485,
        throughput_gops=215.6,
        energy_efficiency_tops_w=4.94,
        area_efficiency_gops_mm2=145.28,
        normalized_ee_tops_w=9.9,
        normalized_ae_gops_mm2=255.0,
    ),
    SotaWork(
        name="Chen et al. [4] (DWC engine)",
        venue="VLSI-SoC'23",
        tech_nm=22, precision_bits=8, voltage_v=0.8, pe_count=72,
        benchmark="MobileNetV1", conv_type="DWC",
        power_w=0.0256, frequency_mhz=1000, area_mm2=0.25,
        throughput_gops=129.8,
        energy_efficiency_tops_w=5.07,
        area_efficiency_gops_mm2=519.2,
        normalized_ee_tops_w=5.07,
        normalized_ae_gops_mm2=519.2,
    ),
    SotaWork(
        name="Chen et al. [4] (PWC engine)",
        venue="VLSI-SoC'23",
        tech_nm=22, precision_bits=8, voltage_v=0.8, pe_count=72,
        benchmark="MobileNetV1", conv_type="PWC",
        power_w=0.02916, frequency_mhz=1000, area_mm2=0.25,
        throughput_gops=115.38,
        energy_efficiency_tops_w=3.96,
        area_efficiency_gops_mm2=461.52,
        normalized_ee_tops_w=3.96,
        normalized_ae_gops_mm2=461.52,
    ),
]

#: "This Work" column of Table III.
EDEA_TABLE3_ROW = {
    "tech_nm": 22,
    "precision_bits": 8,
    "voltage_v": 0.8,
    "pe_count": 800,
    "benchmark": "MobileNetV1",
    "conv_type": "DWC+PWC",
    "power_w": 0.0725,
    "frequency_mhz": 1000,
    "area_mm2": 0.58,
    "throughput_gops": 973.55,
    "energy_efficiency_tops_w": 13.43,
    "area_efficiency_gops_mm2": 1678.53,
}
