"""FL-WIRE — wire-format safety for the service codec and its framing.

The service speaks a fixed-layout versioned codec (``service/wire.py``)
over the length+tag framing of ``repro/net.py``; both sides of every
format must agree *statically*.  Rules:

FL-WIRE001
    No ``pickle`` anywhere under ``repro/`` — every byte the program
    exchanges between processes is a fixed layout by design (a peer
    holding the token gets a ``WireError`` at worst, never arbitrary
    code execution).
FL-WIRE002
    ``pack``/``pack_into`` argument count must match the format
    string's value count.
FL-WIRE003
    Tuple-unpacking an ``unpack``/``unpack_from`` result must bind
    exactly the format's value count.
FL-WIRE004
    Every format string packed somewhere in the wire scan group must
    be unpacked somewhere in the group, and vice versa — a one-sided
    format is an encoder without a decoder.
FL-WIRE005
    A ``<NAME>_SIZE``/``<NAME>_BYTES`` integer constant next to a
    ``Struct`` constant ``<NAME>`` must equal ``calcsize(format)``.
"""

from __future__ import annotations

import ast
import struct as structlib

from ..engine import Diagnostic, Module, Project
from ._util import call_name

RULES = {
    "FL-WIRE001": "pickle import under repro/",
    "FL-WIRE002": "struct.pack argument count != format value count",
    "FL-WIRE003": "unpack target count != format value count",
    "FL-WIRE004": "format packed without a decode counterpart (or v.v.)",
    "FL-WIRE005": "declared size constant != calcsize(format)",
}

#: Modules whose structs form one cross-checked codec group.
_GROUP = ("repro/service", "repro/net.py")
_NO_PICKLE = ("repro",)


def _format_value_count(fmt: str) -> int | None:
    """Number of python values a struct format packs/unpacks."""
    try:
        return len(structlib.unpack(fmt, b"\0" * structlib.calcsize(fmt)))
    except structlib.error:
        return None


def _struct_constants(module: Module) -> dict[str, tuple[str, int]]:
    """Module-level ``NAME = struct.Struct("fmt")`` bindings."""
    consts: dict[str, tuple[str, int]] = {}
    for node in module.tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and isinstance(node.value, ast.Call):
            name = call_name(node.value) or ""
            if name.rsplit(".", 1)[-1] == "Struct" and node.value.args \
                    and isinstance(node.value.args[0], ast.Constant) \
                    and isinstance(node.value.args[0].value, str):
                consts[node.targets[0].id] = (node.value.args[0].value,
                                              node.lineno)
    return consts


def _int_constants(module: Module) -> dict[str, tuple[int, int]]:
    consts: dict[str, tuple[int, int]] = {}
    for node in module.tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, int):
            consts[node.targets[0].id] = (node.value.value, node.lineno)
    return consts


def check(project: Project) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    group = [m for m in project.modules if m.in_pkg(*_GROUP)]
    group_rels = {m.rel for m in group}
    # Struct constants are resolvable across the group (names are
    # import-shared between wire.py / server.py / client.py).
    global_consts: dict[str, tuple[str, int]] = {}
    per_module: dict[str, dict[str, tuple[str, int]]] = {}
    for module in group:
        consts = _struct_constants(module)
        per_module[module.rel] = consts
        for name, value in consts.items():
            global_consts.setdefault(name, value)

    packed: dict[str, tuple[str, int]] = {}   # fmt -> first pack site
    unpacked: dict[str, tuple[str, int]] = {}  # fmt -> first unpack site

    for module in project.modules:
        # FL-WIRE001 — pickle under repro/.
        if module.in_pkg(*_NO_PICKLE):
            diags.extend(_check_pickle(module))
        if module.rel not in group_rels:
            continue
        consts = {**global_consts, **per_module.get(module.rel, {})}
        diags.extend(_check_calls(module, consts, packed, unpacked))
        diags.extend(_check_sizes(module, per_module[module.rel]))

    # FL-WIRE004 — cross-group pairing.
    for fmt, (rel, line) in sorted(packed.items()):
        if fmt not in unpacked:
            diags.append(Diagnostic(
                "FL-WIRE004", rel, line,
                f"format {fmt!r} is packed here but never unpacked "
                "anywhere in the wire scan group"))
    for fmt, (rel, line) in sorted(unpacked.items()):
        if fmt not in packed:
            diags.append(Diagnostic(
                "FL-WIRE004", rel, line,
                f"format {fmt!r} is unpacked here but never packed "
                "anywhere in the wire scan group"))
    return diags


def _check_pickle(module: Module) -> list[Diagnostic]:
    diags = []
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "pickle":
                    diags.append(Diagnostic(
                        "FL-WIRE001", module.rel, node.lineno,
                        "pickle under repro/: every cross-process "
                        "byte is fixed-layout by design"))
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] == "pickle":
                diags.append(Diagnostic(
                    "FL-WIRE001", module.rel, node.lineno,
                    "pickle under repro/: every cross-process "
                    "byte is fixed-layout by design"))
    return diags


def _resolve_format(call: ast.Call, consts: dict[str, tuple[str, int]],
                    ) -> tuple[str | None, bool]:
    """(format, from_literal_arg) for a pack/unpack call site.

    ``struct.pack("fmt", ...)`` carries the format as arg 0;
    ``CONST.pack(...)`` resolves through the Struct constant table.
    """
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None, False
    owner = func.value
    if isinstance(owner, ast.Name) and owner.id in consts:
        return consts[owner.id][0], False
    # struct.pack / struct.unpack with a literal first argument
    name = call_name(call) or ""
    if name.split(".", 1)[0] in ("struct", "structlib") and call.args \
            and isinstance(call.args[0], ast.Constant) \
            and isinstance(call.args[0].value, str):
        return call.args[0].value, True
    return None, False


def _check_calls(module: Module, consts: dict[str, tuple[str, int]],
                 packed: dict[str, tuple[str, int]],
                 unpacked: dict[str, tuple[str, int]]) -> list[Diagnostic]:
    diags = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call) or \
                not isinstance(node.func, ast.Attribute):
            continue
        op = node.func.attr
        if op not in ("pack", "pack_into", "unpack", "unpack_from",
                      "iter_unpack"):
            continue
        fmt, literal = _resolve_format(node, consts)
        if fmt is None:
            continue
        count = _format_value_count(fmt)
        if count is None:
            continue
        if op in ("pack", "pack_into"):
            packed.setdefault(fmt, (module.rel, node.lineno))
            if not any(isinstance(a, ast.Starred) for a in node.args):
                given = len(node.args)
                if literal:
                    given -= 1          # the format itself
                if op == "pack_into":
                    given -= 2 if literal else 2  # buffer, offset
                if given >= 0 and given != count:
                    diags.append(Diagnostic(
                        "FL-WIRE002", module.rel, node.lineno,
                        f"pack format {fmt!r} takes {count} value(s) "
                        f"but {given} were given"))
        else:
            unpacked.setdefault(fmt, (module.rel, node.lineno))
            parent = _assign_parent(module.tree, node)
            if parent is not None:
                targets = parent.targets[0]
                if isinstance(targets, ast.Tuple):
                    if len(targets.elts) != count:
                        diags.append(Diagnostic(
                            "FL-WIRE003", module.rel, node.lineno,
                            f"unpack of {fmt!r} yields {count} value(s) "
                            f"but {len(targets.elts)} target(s) bind it"))
    return diags


def _assign_parent(tree: ast.Module, call: ast.Call) -> ast.Assign | None:
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and node.value is call \
                and len(node.targets) == 1:
            return node
    return None


def _check_sizes(module: Module, consts: dict[str, tuple[str, int]],
                 ) -> list[Diagnostic]:
    diags = []
    ints = _int_constants(module)
    for name, (fmt, _) in consts.items():
        base = name.lstrip("_")
        for suffix in ("_SIZE", "_BYTES"):
            for candidate in (base + suffix, "_" + base + suffix):
                hit = ints.get(candidate)
                if hit is None:
                    continue
                declared, line = hit
                actual = structlib.calcsize(fmt)
                if declared != actual:
                    diags.append(Diagnostic(
                        "FL-WIRE005", module.rel, line,
                        f"{candidate} = {declared} but calcsize"
                        f"({fmt!r}) = {actual}"))
    return diags
