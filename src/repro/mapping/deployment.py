"""Per-head AP deployment for the Llama2 models.

The paper deploys one AP per attention head (Fig. 4: "this AP is deployed in
each head").  For a model configuration this module derives:

* the total AP silicon area (heads x per-AP area), which reproduces the
  0.64 / 0.81 / 1.28 mm^2 figures for Llama2-7b / 13b / 70b;
* the per-invocation energy and latency of the softmax pass used by the
  normalized comparisons of Figs. 6-8 and Table V.

Comparison unit
---------------
Following the paper's accounting (Section V-B), the AP-side cost is the cost
of *one pass of the 16-step dataflow over one per-head AP* (which holds the
``SequenceLength``-element softmax input across ``SequenceLength/2`` rows),
while the GPU-side cost (:mod:`repro.gpu`) is the softmax operator launched
on the decode-step attention-score tensor of the whole model
(``batch x heads x SequenceLength``).  The normalized energy/latency the
paper plots is ``GPU / AP`` under this accounting; EXPERIMENTS.md discusses
the implications (the AP numbers assume each head's AP works on its own
share of the score tensor concurrently).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.ap.engine import DEFAULT_ENGINE
from repro.ap.tech import TECH_16NM, TechnologyParameters
from repro.llm.config import LlamaConfig
from repro.mapping.softmap import MappingCost, SoftmAPMapping
from repro.quant.precision import BEST_PRECISION, PrecisionConfig
from repro.utils.validation import check_in_choices, check_positive_int

__all__ = ["ApDeployment", "DeploymentSummary"]


@dataclass(frozen=True)
class DeploymentSummary:
    """Headline numbers of an AP deployment for one model / sequence length."""

    model: str
    sequence_length: int
    num_aps: int
    rows_per_ap: int
    columns_per_ap: int
    area_mm2: float
    pass_latency_s: float
    pass_energy_j: float
    pass_cycles: float


class ApDeployment:
    """One AP per attention head, sized for a maximum sequence length.

    Parameters
    ----------
    model:
        Model shape configuration (heads determine the AP count).
    precision:
        Mixed-precision configuration of the integer softmax (the paper's
        best combination by default).
    max_sequence_length:
        The sequence length the APs are provisioned for (rows =
        ``max_sequence_length / words_per_row``).
    words_per_row / columns / tech / division:
        Forwarded to :class:`~repro.mapping.softmap.SoftmAPMapping`.  The
        hardware characterization uses the bit-serial restoring division for
        the final step by default (see EXPERIMENTS.md for the ablation
        against the cheaper reciprocal-multiply realisation).
    """

    def __init__(
        self,
        model: LlamaConfig,
        precision: PrecisionConfig = BEST_PRECISION,
        max_sequence_length: int = 4096,
        words_per_row: int = 2,
        columns: int = 64,
        tech: TechnologyParameters = TECH_16NM,
        division: str = "restoring",
    ) -> None:
        self.model = model
        self.precision = precision
        self.max_sequence_length = check_positive_int(
            max_sequence_length, "max_sequence_length"
        )
        self.words_per_row = check_in_choices(
            check_positive_int(words_per_row, "words_per_row"),
            SoftmAPMapping.WORDS_PER_ROW_CHOICES,
            "words_per_row",
        )
        self.columns = check_positive_int(columns, "columns")
        self.tech = tech
        # Validate eagerly: a bad mode must fail at construction, not deep
        # inside the first mapping() call.
        self.division = check_in_choices(
            division, SoftmAPMapping.DIVISION_MODES, "division"
        )

    @property
    def num_aps(self) -> int:
        """Number of APs: one per attention (query) head."""
        return self.model.num_heads

    @property
    def rows_per_ap(self) -> int:
        """CAM rows per AP (provisioned for the maximum sequence length).

        Ceil division: an odd maximum sequence length still needs its final,
        partly filled row provisioned.
        """
        return -(-self.max_sequence_length // self.words_per_row)

    def mapping(self, sequence_length: Optional[int] = None) -> SoftmAPMapping:
        """The dataflow mapping for a given runtime sequence length."""
        sequence_length = sequence_length or self.max_sequence_length
        if sequence_length > self.max_sequence_length:
            raise ValueError(
                f"sequence length {sequence_length} exceeds the provisioned "
                f"maximum {self.max_sequence_length}"
            )
        return SoftmAPMapping(
            precision=self.precision,
            sequence_length=sequence_length,
            words_per_row=self.words_per_row,
            columns=self.columns,
            tech=self.tech,
            division=self.division,
        )

    def pass_cost(self, sequence_length: Optional[int] = None) -> MappingCost:
        """Cost of one softmax pass on one per-head AP."""
        return self.mapping(sequence_length).cost()

    def cluster(self, backend: str = DEFAULT_ENGINE) -> "ApCluster":
        """The functional multi-AP cluster realising this deployment.

        Returns an :class:`~repro.mapping.cluster.ApCluster` with one
        functional per-head AP per attention head, configured exactly like
        the analytical deployment; use its
        :meth:`~repro.mapping.cluster.ApCluster.execute` /
        :meth:`~repro.mapping.cluster.ApCluster.as_backend` to actually run
        attention softmax tensors through the simulated hardware.
        """
        from repro.mapping.cluster import ApCluster

        return ApCluster(
            num_heads=self.num_aps,
            precision=self.precision,
            sequence_length=self.max_sequence_length,
            words_per_row=self.words_per_row,
            columns=self.columns,
            tech=self.tech,
            division=self.division,
            backend=backend,
        )

    def total_area_mm2(self) -> float:
        """Total AP area of the deployment (heads x per-AP area, sized for
        the provisioned maximum sequence length)."""
        per_ap = self.mapping(self.max_sequence_length).cost_model.area_mm2()
        return self.num_aps * per_ap

    def summary(self, sequence_length: Optional[int] = None) -> DeploymentSummary:
        """Headline numbers for one sequence length."""
        sequence_length = sequence_length or self.max_sequence_length
        cost = self.pass_cost(sequence_length)
        return DeploymentSummary(
            model=self.model.name,
            sequence_length=sequence_length,
            num_aps=self.num_aps,
            rows_per_ap=self.rows_per_ap,
            columns_per_ap=self.columns,
            area_mm2=self.total_area_mm2(),
            pass_latency_s=cost.latency_s,
            pass_energy_j=cost.energy_j,
            pass_cycles=cost.cycles,
        )
