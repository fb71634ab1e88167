"""Hardware characterization of SoftmAP for the Llama2 family.

Reproduces the headline hardware numbers of the paper for a chosen model:
per-head AP area, one-pass latency/energy per sequence length, and the
normalized energy / latency / EDP against the A100 and RTX3090 baselines
(the Figs. 6-8 quantities), plus the Fig. 1 softmax runtime share and the
Amdahl end-to-end impact.  The deployment is then instantiated as a
*functional* multi-AP cluster: a sample attention-score tensor is executed
on the simulated hardware (the default compiled engine), verified
bit-identical to the software integer pipeline, and the cluster-level
concurrency cost (latency = max over heads, energy = sum) and pipelined
multi-batch schedule are reported.

Usage::

    python examples/llama_hardware_characterization.py [7b|13b|70b]
"""

import sys

import numpy as np

from repro.experiments import render_comparison
from repro.gpu import A100, GpuTransformerModel
from repro.llm import LLAMA2_MODELS
from repro.mapping import ApDeployment
from repro.runtime import get_experiment
from repro.softmax.integer_softmax import IntegerSoftmax
from repro.utils.tables import TextTable


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "7b"
    if name not in LLAMA2_MODELS:
        raise SystemExit(f"unknown model {name!r}; choose from {sorted(LLAMA2_MODELS)}")
    model = LLAMA2_MODELS[name]

    deployment = ApDeployment(model)
    print(f"=== {model.name}: AP deployment ===")
    print(f"APs (one per head): {deployment.num_aps}")
    print(f"rows per AP       : {deployment.rows_per_ap}")
    print(f"total area        : {deployment.total_area_mm2():.3f} mm^2")
    print()

    table = TextTable(
        ["sequence length", "pass cycles", "pass latency (us)", "pass energy (nJ)"],
        title="One softmax pass on one per-head AP",
    )
    for seq in (128, 512, 1024, 2048, 4096):
        cost = deployment.pass_cost(seq)
        table.add_row([seq, int(cost.cycles), cost.latency_s * 1e6, cost.energy_j * 1e9])
    print(table.render())
    print()

    # Functional cluster through the unified runtime API: run a score
    # tensor through the per-head APs (a short sequence keeps the demo
    # fast; the cost/schedule view below uses the provisioned length) —
    # the SoftmaxResult carries concurrency-accounted cost alongside the
    # CAM-computed probabilities.
    demo_seq, demo_batch = 64, 2
    cluster = deployment.cluster()
    backend = cluster.as_backend()
    rng = np.random.default_rng(0)
    scores = rng.normal(0.0, 2.0, size=(demo_batch, deployment.num_aps, demo_seq))
    result = backend.run(scores)
    software = IntegerSoftmax(deployment.precision, barrett_correction=False)(scores)
    print(f"=== functional AP cluster ({deployment.num_aps} per-head APs) ===")
    print(f"executed a {scores.shape} score tensor on the cluster "
          f"(compiled engine, via cluster.as_backend())")
    print(f"bit-identical to the software integer pipeline: "
          f"{np.array_equal(result.probabilities, software)}")
    print(f"demo pass at {demo_seq} tokens (from the SoftmaxResult): "
          f"{result.cost.latency_s * 1e6:.2f} us, "
          f"{result.cost.energy_j * 1e9:.1f} nJ")
    cost = cluster.cost(batch=demo_batch)
    print(f"cluster pass at the provisioned length (concurrency accounting): "
          f"latency = max over heads = {cost.latency_s * 1e6:.2f} us, "
          f"energy = sum over heads = {cost.energy_j * 1e9:.1f} nJ, "
          f"area = {cost.area_mm2:.3f} mm^2")
    schedule = cluster.schedule(num_batches=8, batch=demo_batch)
    print(f"pipelined 8-batch schedule: {schedule.latency_s * 1e6:.2f} us "
          f"({schedule.pipeline_speedup:.3f}x vs sequential, "
          f"{schedule.throughput_passes_per_s:.0f} passes/s)")
    print()

    points = get_experiment("figs6_8").run({"models": [name]})
    for metric in ("energy", "latency", "edp"):
        print(render_comparison(points, metric))
        print()

    fig1 = get_experiment("fig1")
    print(fig1.render(fig1.run({"model": name})))
    breakdown = GpuTransformerModel(A100, model).prefill(1, 4096)
    reduction = breakdown.end_to_end_reduction(6.7)
    print()
    print(f"Amdahl: a 6.7x softmax speedup reduces the {model.name} prefill "
          f"time at 4096 tokens by {100 * reduction:.2f}% "
          f"(paper reports 10.71% for Llama2-70b).")


if __name__ == "__main__":
    main()
