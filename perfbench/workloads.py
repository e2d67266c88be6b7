"""The three benchmark workloads, driven through ergolab's public API.

A workload turns a seed into inputs (``setup``) and the inputs into an
ordered list of jobs.  A job is one scenario (``corpus``,
``long_horizon``) or one library call (``fine_pieces``); running it
returns a summary that ``reference.py`` compares with the frozen
reference.  Library functions are reached through their modules
(``flows.cesaro_average``, not a name bound here), so the traced run sees
every call once it has patched the module namespaces.
"""

import os

import numpy as np

# pinned rather than globbed, so a new shipped scenario does not change the
# workload under an existing reference
SCENARIOS = ("golden_hat1_dec", "golden_lip_inc", "golden_saw2",
             "product_z8x2", "smooth_rot1", "step_z4_half", "step_z8")
LONG_HORIZON = ("step_z8", "step_z4_half", "product_z8x2")

# fine_pieces constants; the seed picks the sign of the input and the phase
# of the four envelope copies
CASCADE_LEVELS = 12
AVERAGE_T = 3.7
LEVEL_MAX = 12
SUPERLEVEL = 0.1
COPY_SHIFT = 2.0 ** 0.5 - 1.0
PHASE_DENOM = 2 ** 13
PROBES = (np.arange(16) + 0.37) / 16.0


def _scenario_text(name):
    from ergolab.cli import scenario_dir
    with open(os.path.join(scenario_dir(), name + ".cfg"), encoding="utf-8") as fh:
        return fh.read()


def _long_horizon_text(name):
    """Shipped text with the time grid stretched to t = 2**14."""
    text = _scenario_text(name)
    for old, new in (("t_grid.ratio = 1.5", "t_grid.ratio = 2"),
                     ("t_grid.count = 16", "t_grid.count = 15")):
        if old not in text:
            raise ValueError(f"{name}: expected {old!r} in the shipped scenario")
        text = text.replace(old, new)
    return text


def scenario_texts(workload):
    if workload == "corpus":
        return [(name, _scenario_text(name)) for name in SCENARIOS]
    return [(name, _long_horizon_text(name)) for name in LONG_HORIZON]


def fine_params(seed):
    """Sign and dyadic phase of the fine_pieces input for a seed."""
    rng = np.random.default_rng(seed)
    sign = 1.0 if rng.integers(2) == 0 else -1.0
    return sign, int(rng.integers(PHASE_DENOM))


# -- plain numpy views of results (no ergolab calls, so no trace spans) ------


def pp_integral(fn):
    """Integral over [0, 1] of a CircleFunction, from its coefficients."""
    k = np.arange(1, fn.coeffs.shape[1] + 1)
    b = fn.breaks
    gain = (b[1:, None] ** k - b[:-1, None] ** k) / k
    return np.einsum("pk,pkd->d", gain, fn.coeffs)


def pp_eval(fn, x):
    idx = np.clip(np.searchsorted(fn.breaks, x, side="right") - 1,
                  0, fn.breaks.size - 2)
    powers = x[:, None] ** np.arange(fn.coeffs.shape[1])
    return np.einsum("nk,nkd->nd", powers, fn.coeffs[idx])


def cell_summary(values):
    """Mean, rms, min, max and a phase-sensitive checksum of cell values."""
    v = np.asarray(values, dtype=float)
    w = np.cos(2.0 * np.pi * 7.0 * np.arange(v.size) / v.size + 0.3)
    return [float(np.mean(v)), float(np.sqrt(np.mean(v * v))),
            float(np.min(v)), float(np.max(v)), float(w @ v / v.size)]


# -- set-up ----------------------------------------------------------------------


class Inputs:
    """What a workload's set-up builds: parsed configs or fine_pieces input."""

    def __init__(self, workload, seed, configs=None, fine=None):
        self.workload = workload
        self.seed = seed
        self.configs = configs or []
        self.fine = fine or {}


def parse_configs(workload):
    from ergolab import config
    return [(name, config.parse_text(text))
            for name, text in scenario_texts(workload)]


def setup(workload, seed):
    """Import-side work a user pays before the first result: parse the
    scenario files or build the fine_pieces input."""
    if workload in ("corpus", "long_horizon"):
        return Inputs(workload, seed, configs=parse_configs(workload))
    if workload != "fine_pieces":
        raise ValueError(f"unknown workload {workload!r}")
    return Inputs(workload, seed, fine=fine_inputs(*fine_params(seed)))


def fine_inputs(sign, phase):
    from ergolab import flows, functions, spaces
    return {
        "sign": sign,
        "phase": phase / PHASE_DENOM,
        "f": functions.cascade(levels=CASCADE_LEVELS) * sign,
        "flow": flows.rotation_flow(flows.GOLDEN),
        "partitions": [spaces.make_dyadic_partition(lvl)
                       for lvl in range(LEVEL_MAX + 1)],
        "scalar": spaces.VectorNorm("euclidean", 1),
        "pair": spaces.VectorNorm("euclidean", 2),
    }


# -- jobs ------------------------------------------------------------------------


def _scenario_job(cfg, seed, out_dir):
    from ergolab import runner

    def job():
        report = runner.run_scenario(cfg, out_dir=out_dir, seed=seed)
        return {"records": [(r.name, r.status, r.value) for r in report.records],
                "tolerances": [r.tolerance for r in report.records],
                "check_s": [(r.name, r.wall_time) for r in report.records]}
    return job


def _fine_jobs(fine):
    from ergolab import condexp, fields, flows, functions
    s = fine["sign"]
    st = {}

    def average():
        st["g"] = g = flows.cesaro_average(fine["flow"], AVERAGE_T, fine["f"])
        return [float(g.npieces)] + (s * pp_eval(g, PROBES)[:, 0]).tolist()

    def conditioned(level):
        def job():
            e = condexp.cond_exp(st["g"], fine["partitions"][level])
            return cell_summary(s * e.coeffs[:, 0, 0])
        return job

    def scalar_norm():
        st["n1"] = n1 = fields.pointwise_norm(st["g"], fine["scalar"])
        return [float(pp_integral(n1.fn)[0])]

    def pair_norm():
        # (g, f) on g's breaks, which contain f's; not rotated, because a
        # rotation moves the integral of |(g, f)|^2 by up to 1e-3 relative
        # (squared ramp coefficients near 1e12 in the global monomial basis)
        g = st["g"]
        second = np.zeros_like(g.coeffs)
        lin = fine["f"].coeffs_on(g.breaks)
        second[:, :lin.shape[1]] = lin
        pair = functions.CircleFunction(g.breaks,
                                        np.concatenate([g.coeffs, second], axis=2))
        st["n2"] = n2 = fields.pointwise_norm(pair, fine["pair"])
        return [float(pp_integral(n2.q)[0])]

    def norm(key, method, *args):
        def job():
            return [float(getattr(st[key], method)(*args))]
        return job

    def envelope():
        n1 = st["n1"]
        copies = [fields.PolyField(n1.fn.rotate((fine["phase"] + i * COPY_SHIFT) % 1.0))
                  for i in range(4)]
        env = fields.upper_envelope(copies)
        return [float(pp_integral(env.fn)[0])]

    jobs = [("cesaro_average", average)]
    jobs += [(f"cond_exp.{lvl}", conditioned(lvl)) for lvl in range(LEVEL_MAX + 1)]
    jobs += [("pointwise_norm.scalar", scalar_norm),
             ("pointwise_norm.euclidean2", pair_norm),
             ("lp.2", norm("n1", "lp", 2.0)),
             ("lp.1.5", norm("n1", "lp", 1.5)),
             ("lp.3", norm("n1", "lp", 3.0)),
             ("lp.2.euclidean2", norm("n2", "lp", 2.0)),
             ("sup", norm("n1", "sup")),
             ("superlevel_measure", norm("n1", "superlevel_measure", SUPERLEVEL)),
             ("upper_envelope.4", envelope)]
    return jobs


def jobs(inputs, out_dir=None):
    """Ordered (name, callable) pairs for one pass over the inputs."""
    if inputs.workload == "fine_pieces":
        return _fine_jobs(inputs.fine)
    if inputs.workload == "long_horizon":
        out_dir = None
    return [(name, _scenario_job(cfg, inputs.seed, out_dir))
            for name, cfg in inputs.configs]
