"""Per-layer spans around the public functions of each coisokit module.

A span wraps one library function.  ``Tracer.install`` rebinds the wrapper
in every ``coisokit`` module namespace (and class) that holds the original,
because modules such as ``linfty``, ``symplectic_model`` and ``cli`` keep
their own references to ``schouten_bracket`` or ``mat_mul``; patching only
the defining module would miss those calls.  ``uninstall`` puts the
originals back, so untraced ops run the unmodified library.

Spans are aggregated in memory per name: calls, total time (outermost
entries only, so recursion is not counted twice) and self time, which is the
span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import sys
import time

# (span name, defining module, attribute path, counter tag)
# Attribute paths with a dot name a method; every alias of the same function
# object in the class (``__radd__ = __add__``) is rebound too.
SPANS = (
    ("coeff_ring.ring_mul", "coisokit.coeff_ring", "RingElement.__mul__", "ring_mul"),
    ("coeff_ring.ring_add", "coisokit.coeff_ring", "RingElement.__add__", None),
    ("coeff_ring.scalar_ops", "coisokit.coeff_ring", "Scalar.__add__", None),
    ("coeff_ring.scalar_ops", "coisokit.coeff_ring", "Scalar.__mul__", None),
    ("coeff_ring.scalar_ops", "coisokit.coeff_ring", "Scalar.__neg__", None),
    ("coeff_ring.scalar_ops", "coisokit.coeff_ring", "Scalar.__sub__", None),
    ("coeff_ring.scalar_ops", "coisokit.coeff_ring", "Scalar.__rsub__", None),
    ("coeff_ring.scalar_ops", "coisokit.coeff_ring", "Scalar.__truediv__", None),
    ("coeff_ring.scalar_ops", "coisokit.coeff_ring", "Scalar.inverse", None),
    ("coeff_ring.scalar_ops", "coisokit.coeff_ring", "Scalar.conjugate", None),
    ("coeff_ring.eval", "coisokit.coeff_ring", "RingElement.eval", None),
    ("graded.wedge", "coisokit._graded", "GradedTerms.wedge", None),
    ("multivector.schouten", "coisokit.multivector", "schouten_bracket", "schouten"),
    ("multivector.projection", "coisokit.multivector", "projection_P", None),
    ("multivector.pushforward", "coisokit.multivector", "fibre_translate_pushforward", None),
    ("multivector.exp_ad", "coisokit.multivector", "exp_ad", None),
    ("forms.musical", "coisokit.forms", "sharp_star", None),
    ("forms.musical", "coisokit.forms", "leafwise_sharp_star", None),
    ("forms.musical", "coisokit.forms", "leafwise_sharp_inverse", None),
    ("forms.musical", "coisokit.forms", "sharp_star_inverse", None),
    ("forms.musical", "coisokit.forms", "musical_inverse", None),
    ("linalg.mat_mul", "coisokit._linalg", "mat_mul", None),
    ("linalg.ring_inverse", "coisokit._linalg", "ring_matrix_inverse", None),
    ("linfty.make_algebra", "coisokit.linfty", "make_coiso_algebra", None),
    ("linfty.algebra_from_form", "coisokit.linfty", "coiso_algebra_from_form", None),
    ("linfty.mc_series", "coisokit.linfty", "mc_series_exact", None),
    ("linfty.mc_table", "coisokit.linfty", "mc_partial_table", None),
    ("linfty.sample_grid", "coisokit.linfty", "sample_grid", "grid_points"),
    ("linfty.pushforward_oracle", "coisokit.linfty", "pushforward_oracle_numeric", None),
    ("linfty.coisotropy_numeric", "coisokit.linfty", "coisotropy_check_numeric", None),
    ("linfty.jacobi", "coisokit.linfty", "higher_jacobi_verify", None),
    ("linfty.twisted_lambda", "coisokit.linfty", "twisted_lambda", None),
    ("symplectic_model.gotay", "coisokit.symplectic_model", "gotay_local_model", None),
    ("symplectic_model.inversion", "coisokit.symplectic_model", "symplectic_to_poisson", None),
    ("symplectic_model.pencil_invert", "coisokit.symplectic_model", "invert_affine_pencil", None),
    ("symplectic_model.pencil_defect", "coisokit.symplectic_model", "pencil_product_defect", None),
    ("obstruction.certificate", "coisokit.obstruction", "obstructedness_certificate", None),
    ("cli.parse", "coisokit.cli", "parse_scenario", None),
    ("cli.run", "coisokit.cli", "run", None),
    ("cli.emit", "coisokit.cli", "emit_report", None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _, _ in SPANS))
# the benchmark module that imports library functions by name; its references
# are rebound as well
CALLER_MODULE = "workloads"
COUNTER_NAMES = (
    "coeff_ring.ring_mul.term_pairs",
    "coeff_ring.ring_mul.terms_out",
    "multivector.schouten.terms_out",
    "linfty.sample_grid.grid_points",
)


class _Stat:
    __slots__ = ("calls", "total", "self_time", "depth")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.depth = 0


class Tracer:
    """Aggregating span collector; one per traced run."""

    def __init__(self):
        self.stats = {name: _Stat() for name in SPAN_NAMES}
        self.counters = {name: 0 for name in COUNTER_NAMES}
        self.root_time = 0.0  # time inside any outermost span
        self._children = []  # child-time accumulator per open span
        self._patches = []  # (owner, attribute, original)

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name, fn, counter):
        stat = self.stats[name]
        children = self._children
        clock = time.perf_counter
        counters = self.counters

        def span(*args, **kwargs):
            stat.depth += 1
            children.append(0.0)
            t0 = clock()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = children.pop()
                stat.calls += 1
                stat.self_time += dur - child
                stat.depth -= 1
                if stat.depth == 0:
                    stat.total += dur
                if children:
                    children[-1] += dur
                else:
                    self.root_time += dur
            if counter == "ring_mul":
                other = args[1]
                counters["coeff_ring.ring_mul.term_pairs"] += len(args[0].terms) * len(
                    getattr(other, "terms", (0,))
                )
                counters["coeff_ring.ring_mul.terms_out"] += len(return_value.terms)
            elif counter == "schouten":
                counters["multivector.schouten.terms_out"] += len(return_value.terms)
            elif counter == "grid_points":
                counters["linfty.sample_grid.grid_points"] += len(return_value)
            return return_value

        return span

    # -- patching ------------------------------------------------------------

    def install(self):
        """Rebind every traced function wherever a coisokit namespace holds it."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None
            and (key in ("coisokit", CALLER_MODULE) or key.startswith("coisokit."))
        ]
        for name, module_name, path, counter in SPANS:
            owner = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(owner, cls_name)
                targets = [owner]
            else:
                attr, targets = path, modules
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original, counter)
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is original:
                        self._patches.append((target, key, original))
                        setattr(target, key, wrapper)

    def uninstall(self):
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def ranking(self):
        """Span names by self time, largest first."""
        return sorted(SPAN_NAMES, key=lambda n: -self.stats[n].self_time)
