"""Quickstart: train, compress, quantize and map a small CNN end to end.

This walks the full pipeline of the paper on a laptop-sized problem:

1. train a small CNN on a synthetic CIFAR-like dataset,
2. compress its convolutions with group low-rank decomposition (Theorem 1),
3. quantize the compressed model with 4-bit QAT (the paper's setting),
4. map every compressed layer onto IMC crossbars and count computing cycles
   with and without the proposed SDK factor mapping (Theorem 2),
5. print an energy estimate against the uncompressed im2col baseline,
6. point at the full paper reproduction — including the process-parallel
   ``--workers`` mode that spreads the sweep grids across local cores.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations


from repro import lowrank, quantization
from repro.analysis.tables import format_kv, format_table
from repro.data.loaders import DataLoader
from repro.data.synthetic import make_tiny_dataset
from repro.imc.energy import EnergyModel
from repro.lowrank.layers import GroupLowRankConv2d
from repro.mapping.cycles import im2col_cycles, lowrank_cycles
from repro.mapping.geometry import ArrayDims, ConvGeometry
from repro.nn.models import SimpleCNN
from repro.nn.optim import Adam
from repro.training.evaluate import evaluate_accuracy
from repro.training.trainer import Trainer


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Data and model
    # ------------------------------------------------------------------
    dataset = make_tiny_dataset(num_samples=240, num_classes=4, image_size=12, seed=0)
    train_set, test_set = dataset.split(0.8, seed=0)
    train_loader = DataLoader(train_set, batch_size=32, shuffle=True, seed=0)
    test_loader = DataLoader(test_set, batch_size=32, shuffle=False)

    model = SimpleCNN(num_classes=4, in_channels=3, widths=(8, 16, 32), seed=0)
    print(f"model parameters (dense): {model.num_parameters()}")

    # ------------------------------------------------------------------
    # 2. Train the dense baseline
    # ------------------------------------------------------------------
    trainer = Trainer(model, Adam(model.parameters(), lr=0.01), verbose=True)
    trainer.fit(train_loader, epochs=5, eval_loader=test_loader)
    dense_accuracy = evaluate_accuracy(model, test_loader)
    print(f"dense test accuracy: {dense_accuracy:.3f}")

    # ------------------------------------------------------------------
    # 3. Group low-rank compression (the paper's contribution)
    # ------------------------------------------------------------------
    spec = lowrank.CompressionSpec(rank_divisor=2, groups=2)
    report = lowrank.compress_model(model, spec)
    print()
    print(report.describe())
    compressed_accuracy = evaluate_accuracy(model, test_loader)
    print(f"compressed test accuracy (before fine-tuning): {compressed_accuracy:.3f}")

    # Short fine-tuning of the factors, as the paper does after decomposition.
    Trainer(model, Adam(model.parameters(), lr=0.005)).fit(train_loader, epochs=2)
    finetuned_accuracy = evaluate_accuracy(model, test_loader)
    print(f"compressed test accuracy (after fine-tuning):  {finetuned_accuracy:.3f}")

    # ------------------------------------------------------------------
    # 4. 4-bit quantization-aware training wrapper (paper's experimental setup)
    # ------------------------------------------------------------------
    qat_report = quantization.apply_qat(model, quantization.QuantizationConfig(weight_bits=4, activation_bits=4))
    print()
    print(qat_report.describe())
    Trainer(model, Adam(model.parameters(), lr=0.002)).fit(train_loader, epochs=1)
    qat_accuracy = evaluate_accuracy(model, test_loader)
    print(f"4-bit QAT compressed accuracy: {qat_accuracy:.3f}")

    # ------------------------------------------------------------------
    # 5. IMC mapping: computing cycles and energy per compressed layer
    # ------------------------------------------------------------------
    array = ArrayDims.square(32)
    energy_model = EnergyModel()
    input_hw = {"features.3": 12, "features.6": 6}  # feature-map sizes seen by each compressed conv
    rows = []
    dense_energy = 0.0
    ours_energy = 0.0
    for name, module in model.named_modules():
        layer = getattr(module, "layer", None)
        if isinstance(layer, GroupLowRankConv2d):
            target = layer  # QAT wrapper around a compressed convolution
        elif isinstance(module, GroupLowRankConv2d) and not name.endswith(".layer"):
            target = module
        else:
            continue
        hw = input_hw.get(name, 6)
        geometry = ConvGeometry(
            target.in_channels,
            target.out_channels,
            target.kernel_size[0],
            target.kernel_size[1],
            hw,
            hw,
            stride=target.stride[0],
            padding=target.padding[0],
            name=name,
        )
        baseline = im2col_cycles(geometry, array)
        ours = lowrank_cycles(geometry, array, rank=target.rank, groups=target.groups, use_sdk=True)
        dense_energy += energy_model.im2col_energy(geometry, array).energy_pj
        ours_energy += energy_model.lowrank_energy(
            geometry, array, rank=target.rank, groups=target.groups, use_sdk=True
        ).energy_pj
        rows.append([name, baseline.cycles, ours.cycles, f"{baseline.cycles / ours.cycles:.2f}x"])

    print()
    print(format_table(["layer", "im2col cycles", "ours cycles", "speedup"], rows,
                       title=f"per-layer computing cycles on a {array} array"))
    print()
    print(
        "note: this quickstart model is intentionally tiny (8-32 channels), a regime\n"
        "where low-rank factors cannot beat the dense mapping; run\n"
        "examples/compress_resnet20.py for the paper-scale networks where the\n"
        "proposed method yields its 1.5-2.5x cycle reductions."
    )
    print()
    print(format_kv(
        {
            "dense accuracy": f"{dense_accuracy:.3f}",
            "compressed + QAT accuracy": f"{qat_accuracy:.3f}",
            "parameter compression ratio": f"{report.compression_ratio:.2f}x",
            "energy vs im2col": f"{ours_energy / dense_energy:.2f}",
        },
        title="summary",
    ))

    # ------------------------------------------------------------------
    # 6. Scaling up: the full paper reproduction, across all local cores
    # ------------------------------------------------------------------
    print()
    print(
        "next step — reproduce every table and figure of the paper, spreading\n"
        "the sweep grids over 4 worker processes (store-shard work stealing;\n"
        "output is byte-identical to --workers 1, and the warm store makes\n"
        "reruns assembly-only):\n"
        "    python -m repro --store .repro-store report --workers 4\n"
        "or, equivalently, REPRO_WORKERS=4 python -m repro report\n"
        "\n"
        "to share the sweep machinery over HTTP instead (deduplicated jobs,\n"
        "reports byte-identical to the CLI's --json output):\n"
        "    python -m repro --store .repro-store serve --port 8321\n"
        "    curl -X POST localhost:8321/sweeps -d '{\"workers\": 4}'\n"
        "\n"
        "to trade precision for throughput, the numpy32 backend runs the\n"
        "execution arithmetic in float32, within a documented tolerance\n"
        "envelope of the float64 reference (its store artifacts are salted\n"
        "apart from float64 ones):\n"
        "    python -m repro backends                    # both backends, policies, salts\n"
        "    python -m repro --backend numpy32 report"
    )


if __name__ == "__main__":
    main()
