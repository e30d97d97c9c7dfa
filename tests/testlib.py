"""Library code that only the tests call.  The translation builds each
System F index in place, so src/prk closes no name into a binder:
flam, tylam, close_fterm and close_tyvar_in_fterm build F binders over
named bodies for hand-written terms.  validate_derivation re-checks a
typing derivation; nothing in src/prk compares whole derivations."""

from prk.errors import TypingError
from prk.systemf import FBound, FLam, FTerm, FType, FVar, TyLam, close_type, fterm_map
from prk.typecheck import Derivation, check_type


def close_fterm(t: FTerm, name: str, depth: int = 0) -> FTerm:
    def leaf(u, d: tuple[int, int]):  # `name` or a term index >= d[0]
        return FBound(d[0]) if isinstance(u, FVar) else FBound(u.index + 1)

    return fterm_map(t, leaf, (depth, 0),
                     keep=lambda u, d: u.free[2] <= d[0] and name not in u.free[3])


def close_tyvar_in_fterm(t: FTerm, name: str, depth: int = 0) -> FTerm:
    return fterm_map(t, lambda u, d: close_type(u, name, d[1]), (0, depth),
                     keep=lambda u, d: u.free[0] <= d[1] and name not in u.free[1])


def flam(name: str, annot: FType, body: FTerm) -> FLam:
    return FLam(annot, close_fterm(body, name), hint=name)


def tylam(name: str, body: FTerm) -> TyLam:
    return TyLam(close_tyvar_in_fterm(body, name), hint=name)


def validate_derivation(d: Derivation) -> bool:
    """Re-check a derivation bottom-up; True iff it reconstructs exactly."""
    try:
        again = check_type(d.ctx, d.subject, d.conclusion)
    except TypingError:
        return False
    return again == d


def per_candidate_masks(states: list, n: int, atoms: int) -> tuple[list, list]:
    """The vplus and vminus masks of kripke._order_tables for an order with these candidate
    states, built candidate by candidate: per world and atom, a string of one digit per
    candidate, the last first, read as a binary number."""
    return tuple([[int("".join("1" if st[w][k] & bit else "0" for st in reversed(states)), 2)
                   for k in range(atoms)] for w in range(n)] for bit in (1, 2))


def print_model_by_lookup(m) -> str:
    """kripke.print_model as it was: each world's valuations read through m.plus
    and m.minus, which build a dict over every world on each call."""
    lines = ["alphabet: " + " ".join(sorted(m.alphabet)), "worlds: " + " ".join(m.worlds)]
    gens = sorted((a, b) for a, b in m.leq if a != b)
    if gens:
        lines.append("leq: " + ", ".join(f"{a} {b}" for a, b in gens))
    for w in m.worlds:
        if m.plus(w):
            lines.append(f"vplus {w}: " + " ".join(sorted(m.plus(w))))
    for w in m.worlds:
        if m.minus(w):
            lines.append(f"vminus {w}: " + " ".join(sorted(m.minus(w))))
    return "\n".join(lines) + "\n"
