"""State-codec contract: predictor state must round-trip exactly.

The serving registry publishes ``get_state()`` through the exact codec
(``serve/codec.py``), which encodes None/bool/int/float/str/bytes,
lists/tuples/dicts of those, and numpy arrays/scalars — nothing else.
PR 4's production bug was precisely a predictor whose state carried raw
``estimator.get_params()`` output (estimator *objects* as values); it
failed at first publish.  RL301 catches that class at lint time, for
every class whose name or bases mention ``Predictor`` or ``Estimator``:
``get_state`` must not call ``.get_params()`` directly.  Estimator
params go through ``get_plain_params()`` / ``params_to_plain()`` so
nested estimators become plain constructor descriptions.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..base import Checker, ModuleInfo, ProjectIndex, base_names
from ..findings import STATE_GET_PARAMS, Finding

_TARGET_MARKERS = ("Predictor", "Estimator")


def _is_state_bearing(cls: ast.ClassDef) -> bool:
    names = [cls.name, *base_names(cls)]
    return any(marker in n for n in names for marker in _TARGET_MARKERS)


class StateCodecChecker(Checker):
    rules = (STATE_GET_PARAMS,)

    def check_module(
        self, module: ModuleInfo, index: ProjectIndex
    ) -> Iterable[Finding]:
        if module.tree is None:
            return []
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef) or not _is_state_bearing(node):
                continue
            for stmt in node.body:
                if (
                    isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and stmt.name == "get_state"
                ):
                    self._scan_get_state(module, node.name, stmt, findings)
        return findings

    def _scan_get_state(
        self,
        module: ModuleInfo,
        cls_name: str,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        findings: list[Finding],
    ) -> None:
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get_params"
            ):
                findings.append(
                    Finding(
                        rule=STATE_GET_PARAMS,
                        path=module.path,
                        line=node.lineno,
                        message=(
                            f"{cls_name}.get_state ships raw .get_params() "
                            "output; estimator-valued params will not survive "
                            "the exact state codec"
                        ),
                        hint="use get_plain_params() or route through "
                        "params_to_plain()/params_from_plain()",
                    )
                )
