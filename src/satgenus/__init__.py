"""Exact 4-ball genus bounds for braided satellite links.

The layers, bottom up: symmetric-group arithmetic (:mod:`satgenus.perms`),
braid words and their families (:mod:`satgenus.braids`),
Euler-characteristic bookkeeping for branched covers
(:mod:`satgenus.covering`), the integer bound evaluators
(:mod:`satgenus.bounds`), and an exhaustive enumeration oracle that
certifies the covering-genus floors on small symmetric groups
(:mod:`satgenus.oracle`), whose witnesses are tuples of 0-indexed image
tuples that ``satgenus.perms.Permutation`` wraps.  ``satgenus.cli`` exposes
all of it as a command line tool.

The names below are exported lazily (PEP 562): ``import satgenus`` loads no
layer, and the first access to a name imports its submodule.  So a process
pays only for the layers it uses; ``satgenus.cli`` imports the package first.

What more than one layer needs lives here, where no layer has to be loaded
for it: ``_Record``, the frozen-value base of every record class; the
command line's exit codes and ``BudgetExceededError``, which
``satgenus.cli``, its handler modules and the oracle share;
``_cycle_notation`` and the orbit walk ``_orbits``, which the oracle
shares with :mod:`satgenus.perms`; and ``_rough``, which shortens the long
numbers that the layers' error messages name.
Without a bytecode cache each module a process imports is compiled from
source, so a layer loaded only for a base class or a function would cost
its whole compile.
"""

from __future__ import annotations

__version__ = "0.1.0"

# exit codes of the command line
EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INVARIANT = 4


class BudgetExceededError(RuntimeError):
    """An enumeration over its work budget (EXIT_BUDGET)."""


def _rough(x: int) -> str:
    """x in decimal up to 15 digits, its sign and power of ten above: a
    longer count may be an estimate, or too long for a one-line message."""
    if abs(x) < 10**15:
        return str(x)
    import math

    return f"about {'-' * (x < 0)}10^{math.floor(math.log10(abs(x)))}"


def _cycle_notation(images: tuple[int, ...]) -> str:
    """The 1-indexed cycle notation of a 0-indexed image tuple: each cycle
    from its least point, in order of least point, fixed points omitted; the
    identity prints as '()'."""
    seen = [False] * len(images)
    parts = []
    for start, image in enumerate(images):
        if image == start or seen[start]:
            continue
        cycle = []
        x = start
        while not seen[x]:
            seen[x] = True
            cycle.append(str(x + 1))
            x = images[x]
        parts.append("(" + " ".join(cycle) + ")")
    return "".join(parts) or "()"


def _orbits(n: int, *perms: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The 1-indexed orbits of 0..n-1 under the image tuples, by least point:
    each point not yet labelled starts a block, which a walk along the images
    labels whole (forward images run round a permutation's whole cycle)."""
    label = [-1] * n
    blocks: list[list[int]] = []
    for start in range(n):
        if label[start] >= 0:
            continue
        block = len(blocks)
        blocks.append([])
        label[start] = block
        stack = [start]
        while stack:
            x = stack.pop()
            for images in perms:
                y = images[x]
                if label[y] < 0:
                    label[y] = block
                    stack.append(y)
    for x, block in enumerate(label):
        blocks[block].append(x + 1)
    return [tuple(block) for block in blocks]


# exported name: (submodule, attribute)
_EXPORTS = {
    **{name: ("braids", name) for name in (
        "BraidWord", "braid_text", "closure_component_count", "concat",
        "exponent_sum", "half_twist", "orevkov_k1", "orevkov_k2", "parse_braid",
        "permutation_of", "suggested_twist_count",
    )},
    **{name: ("bounds", name) for name in (
        "BoundReport", "OrevkovGapReport", "bound_reports_to_csv",
        "orevkov_gap_report", "qp_closure_genus", "schubert_bound",
        "thm1_knot_bound", "thm1_link_bound",
    )},
    **{name: ("covering", name) for name in (
        "CoverData", "HomomorphismCover", "SurfaceShape", "add_branch_point",
        "boundary_permutation", "cover_data_to_json", "cover_from_homomorphism",
        "cyclic_cover", "euler_characteristic", "rh_euler",
    )},
    **{name: ("oracle", name) for name in (
        "EnumerationReport", "SharpnessReport", "enumerate_covers",
        "realizability_table", "verify_sharpness",
    )},
    **{name: ("perms", name) for name in (
        "CycleType", "Permutation", "commutator", "compose", "cycle_count",
        "cycle_type", "cycles_str", "example1_pair", "example2_pair",
        "identity", "is_even", "is_transitive", "orbits",
        "ore_commutator_search", "parse_cycles",
    )},
    "perm_inverse": ("perms", "inverse"),
}
_SUBMODULES = ("bounds", "braids", "cli", "covering", "oracle", "perms")

__all__ = sorted([*_EXPORTS, "BudgetExceededError"])


def __getattr__(name: str):
    if name in _EXPORTS:
        module, attr = _EXPORTS[name]
    elif name in _SUBMODULES:
        module, attr = name, None
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's machinery, unlike importlib.import_module, is
    # what -X importtime reports; a fromlist makes it return the submodule
    value = __import__(f"{__name__}.{module}", fromlist=["__name__"])
    if attr is not None:
        value = getattr(value, attr)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))


class _Record:
    """Frozen value with named fields, in the manner of a frozen dataclass.

    A subclass declares its fields as class annotations, in order; a value
    assigned in the class body is that field's default.  Fields are taken
    positionally or by keyword, a missing or unknown one raises TypeError,
    and ``__post_init__`` runs once they are set.  Instances compare equal
    only to instances of the same class with equal fields, hash their field
    tuple, refuse assignment and deletion with AttributeError, and repr as
    ``Name(field=value, ...)``.  It stands in for ``dataclasses``, whose
    import (``inspect``, ``ast``, ``dis``, ``tokenize``...) and per-class code
    generation cost more than a short command-line request computes.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # a record's subclass keeps its parent's fields first
        own = tuple(cls.__dict__.get("__annotations__", ()))
        cls._fields = tuple(dict.fromkeys(cls._fields + own))

    def __init__(self, *args, **kwargs) -> None:
        cls = type(self)
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__} takes {len(fields)} fields, got {len(args)}")
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields:
                raise TypeError(f"{cls.__name__} has no field {name!r}")
            if name in values:
                raise TypeError(f"{cls.__name__} got field {name!r} twice")
            values[name] = value
        for name in fields:
            if name not in values:
                if not hasattr(cls, name):
                    raise TypeError(f"{cls.__name__} is missing field {name!r}")
                values[name] = getattr(cls, name)
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is frozen")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is frozen")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"
