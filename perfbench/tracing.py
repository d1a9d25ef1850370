"""Spans around deskdiar's public functions, installed only for a traced run.

Each traced function is wrapped at every module-level name it is called
through (``pipeline.nme_select`` and ``clustering.nme_select`` are one
function), so calls between modules and inside a module both record a
span. Spans stay in memory until the run writes them out. A function that
no longer exists, or whose parameter names changed, is left unwrapped and
reported as absent, so a refactor still gets its end-to-end figures.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

# module -> function -> the parameter names the wrapper was written against
SIGNATURES: Dict[str, Dict[str, Tuple[str, ...]]] = {
    "autodiff": {
        "mlp_forward": ("params", "x"),
        "mlp_backward": ("tape", "upstream", "tail_upstream_is_logit_grad"),
        "mlp_input_backward": ("tape", "upstream"),
        "critic_param_gradient": ("params", "x", "upstream", "x_hat",
                                  "gp_weight"),
        "adam_step": ("state", "params", "grads"),
    },
    "gan": {
        "critic_step": ("d_params", "g_params", "x_real", "batch", "cfg",
                        "opt", "rng", "iteration", "eps"),
        "gen_enc_step": ("g_params", "e_params", "d_params", "batch", "cfg",
                         "g_opt", "e_opt", "latent", "iteration"),
    },
    "models": {
        "sample_latent": ("m", "latent", "labels", "rng"),
        "save_checkpoint": ("ck", "path"),
    },
    "protonet": {
        "sample_episode": ("data", "cfg", "rng"),
        "episode_loss_and_grads": ("e_params", "episode", "n_s"),
        "proto_loss": ("prototypes", "embedded_queries", "query_class_idx"),
    },
    "clustering": {
        "cosine_affinity": ("x",),
        "nme_select": ("a", "p_range", "k_max"),
        "laplacian": ("abar",),
        "kmeans": ("x", "k", "restarts", "seed"),
        "spectral_cluster": ("x", "k", "p", "p_range", "k_max", "restarts",
                             "seed"),
        "binarize_symmetrize": ("a", "p"),
        "eig_sym": ("mat",),
    },
    "pipeline": {
        "run_diarization": ("sad", "x_raw", "cfg", "encoder"),
    },
    "metrics": {
        "parse_rttm": ("text",),
        "der": ("reference", "hypothesis", "collar"),
        "cluster_purity": ("true_labels", "hyp_labels"),
    },
    "cli": {
        "_frame_label_pairs": ("reference", "hypothesis"),
        "cmd_score": ("args",),
    },
}

PACKAGE = "deskdiar"


def _params(fn: Callable) -> Optional[Tuple[str, ...]]:
    try:
        return tuple(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None


class Tracer:
    """Records (id, parent id, name, phase, start, end, self seconds)
    spans; parent id 0 means no traced caller.

    Only calls made while a phase is set are recorded, so set-up and
    warm-up leave no spans.
    """

    def __init__(self) -> None:
        self.phase: Optional[str] = None
        self.spans: List[Tuple[int, int, str, str, float, float, float]] = []
        self.absent: List[str] = []
        self._stack: List[list] = []   # [start, child seconds, id]
        self._next_id = 0
        self._installed: List[Tuple[object, str, Callable]] = []

    def install(self, wanted: Dict[str, List[str]]) -> None:
        """Wrap each wanted ``module.function`` of the package."""
        found = {}
        for mod_name, funcs in sorted(wanted.items()):
            try:
                found[mod_name] = importlib.import_module(
                    f"{PACKAGE}.{mod_name}")
            except ImportError:
                self.absent += [f"{mod_name}.{f}" for f in sorted(funcs)]
        modules = [m for name, m in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for mod_name, mod in found.items():
            for func in sorted(wanted[mod_name]):
                fn = getattr(mod, func, None)
                expect = SIGNATURES.get(mod_name, {}).get(func)
                if fn is None or expect is None or _params(fn) != expect:
                    self.absent.append(f"{mod_name}.{func}")
                    continue
                wrapper = self._wrap(f"{mod_name}.{func}", fn)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            self._installed.append((m, attr, fn))
                            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._installed):
            setattr(m, attr, fn)
        self._installed.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        clock = time.perf_counter
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            phase = self.phase
            if phase is None:
                return fn(*args, **kwargs)
            self._next_id += 1
            parent = stack[-1][2] if stack else 0
            frame = [clock(), 0.0, self._next_id]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                if stack:
                    stack[-1][1] += dur
                spans.append((frame[2], parent, name, phase, frame[0], end,
                              dur - frame[1]))

        wrapper.span_name = name
        return wrapper

    def totals(self, phase: str) -> Dict[str, Tuple[float, int]]:
        """function -> (self seconds, calls) over one phase."""
        out: Dict[str, Tuple[float, int]] = {}
        for _, _, name, ph, _, _, self_s in self.spans:
            if ph == phase:
                s, c = out.get(name, (0.0, 0))
                out[name] = (s + self_s, c + 1)
        return out
