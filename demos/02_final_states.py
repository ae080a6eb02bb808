"""Where can the music stop?  Final shadows, placements, and locking in.

Up to translation, a single-file group of n occupants always ends in one
of n-1 shadows: single rooms with all gaps 1 except a single 2-gap.
This script surveys which starts reach which shadows, lists the exact
final placements of flat starts, and shows the locked-in criterion.
"""
from dispersion import (
    clusteron,
    explore,
    final_shadow_family,
    final_shadow_set,
    flat_clusteron,
    flat_final_placements,
    is_spacious,
    merge_shadows_check,
    parse_state,
    verify_locked_in_equivalence,
)
from dispersion.verify import compositions


def main() -> None:
    n = 5
    print(f"the final shadow family for {n} occupants:")
    for fid in sorted(final_shadow_family(n)):
        print(f"  F({fid.n},{fid.k}) = {fid.to_state().pattern()}")
    print()

    print("every width->=2 clusteron of size 4 reaches the whole family:")
    for parts in compositions(4):
        if len(parts) == 1:
            continue
        reached = sorted(f.k for f in final_shadow_set(clusteron(parts)))
        print(f"  start {''.join(map(str, parts))}: shadows k in {reached}")
    print("the two size-3 exceptions reach a single shadow each:")
    for text in ("12", "21"):
        reached = sorted(f.k for f in final_shadow_set(parse_state(text)))
        print(f"  start {text}: shadows k in {reached}")
    print()

    placements = sorted(flat_final_placements(n))
    print(
        f"a flat start of size {n} has exactly {len(placements)} final "
        f"placements ((n-3)(n-1)+2 = {(n - 3) * (n - 1) + 2}):"
    )
    for p in placements:
        print(f"  F({p.shadow_id.n},{p.shadow_id.k}) with leftmost room {p.leftmost_room}")
    print()

    print("locked-in means the sumtroid can never change again; it is")
    print("equivalent to being spacious (no 3-run, 2-runs split by 2-gaps):")
    for text in ("110011", "11011", "10101"):
        print(f"  {text}: spacious = {is_spacious(parse_state(text))}")
    g = explore(flat_clusteron(6))
    ok = not verify_locked_in_equivalence(g)
    print(f"checked pointwise on {len(g.nodes)} reachable states: ok = {ok}")
    print()

    rep = merge_shadows_check(3, 1, 2, 1)
    print(
        "two finished groups pushed together merge into one final shadow:\n"
        f"  F(3,1) next to F(2,1) -> F({rep.expected.n},{rep.expected.k}), "
        f"sumtroid constant = {rep.sumtroid_constant}, "
        f"explored {rep.nodes} states"
    )


if __name__ == "__main__":
    main()
