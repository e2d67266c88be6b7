"""Verdict tolerances: the one table every check's verdict reads.

Keys are check names, plus the second allowances inside
martingale_surrogate and me_em_coincidence, and the defect up to which a
submartingale family's input is accepted.  Only the runner's checks read
it for verdicts, as limits of ``runner._verdict`` (the library's reports
carry numbers), and they look entries up at the time of the verdict, so
an edit here moves the verdict and the reported ``tolerance`` together.
The one library lookup is ``SubmartingaleFamily``'s input validation.
"""

TOLERANCES = {
    **dict.fromkeys(("defining_property", "tower_idempotence",
                     "functional_commutation", "commutation",
                     "ergodic_envelope", "martingale_surrogate",
                     "martingale_surrogate_slack", "submartingale_sup",
                     "submartingale_input"), 1e-12),
    **dict.fromkeys(("flow_isometry", "semigroup_law", "domination_chain",
                     "me_em_coincidence"), 1e-10),
    **dict.fromkeys(("contraction", "decomposition", "dominant_ineq_me",
                     "dominant_ineq_em", "maximal_ineq_me", "maximal_ineq_em",
                     "me_em_limit_gap"), 1e-9),
}
