"""Reproduction harness: turns the embedded catalogs into the report's
pass/fail assertions. Shared by the `reproduce` CLI command and the
acceptance suite so each section's sweep runs in exactly one place."""

from .catalog import S3_LETTERS, S4_LETTERS, load
from .iso_oracle import verify_witness
from .products import product_witness
from .reporting import assertion
from .type1 import adams_apply, type1_group_table, type1_set
from .type2 import ThetaMap, classify_theta, type2_group_check, type2_set


def _theta_row_checks(out, graphs, rows, n):
    """Classify every (m, t) row against every graph and compare partners."""
    for row in rows:
        tm = ThetaMap(n, row["m"], row["t"])
        for letter, g in graphs.items():
            cls = classify_theta(tm, g)
            rowname = f"theta(m={row['m']},t={row['t']}) on {letter}: {g.label()}"
            if row["map"] in ("identity", "not_circulant"):
                out.append(assertion(rowname, cls.kind == row["map"], f"got {cls.kind}"))
            else:
                want = graphs[row["map"][letter]]
                ok = cls.kind == "type2" and cls.image == want
                got = cls.image.label() if cls.image else cls.kind
                out.append(assertion(rowname, ok, f"want type2 -> {want.label()}, got {got}"))
                if ok:
                    out.append(assertion(rowname + " witness", verify_witness(cls.witness),
                                         cls.witness.origin))


def section3() -> list:
    """All embedded order-432 assertions."""
    cat = load()
    out = []

    # unit-multiplication families and their group tables
    for letter in S3_LETTERS:
        family = cat.s3_family(letter)
        orbit = type1_set(family[0])
        out.append(assertion(
            f"T1 family {letter} at 432",
            set(orbit.members) == set(family) and len(orbit.members) == 6,
            f"{len(orbit.members)} members",
        ))
        for mult, member in zip(cat.s3["multipliers"], family):
            out.append(assertion(
                f"{mult}*{letter}1 = listed member",
                adams_apply(family[0], mult) == member,
                member.label(),
            ))
        table = type1_group_table(orbit)
        out.append(assertion(
            f"T1 group table {letter} at 432",
            table.ok and table.associativity == "exhaustive",
            f"assoc={table.associativity}",
        ))

    # coprime products reproduce the six seeds
    for letter in S3_LETTERS:
        xk, yk = cat.s3["products"][letter]
        g, h = cat.s3_factor(xk), cat.s3_factor(yk)
        prod, witness = product_witness("coprime", g, h)
        out.append(assertion(
            f"{g.label()} x {h.label()} = seed {letter}",
            prod == cat.s3_seed(letter),
            prod.label(),
        ))
        out.append(assertion(
            f"explicit product embedding for seed {letter}",
            witness is not None and verify_witness(witness),
            "edge-identical under (x,y) -> nx+my",
        ))

    # theta catalog rows over all 36 graphs
    graphs = {letter: cat.s3_family(letter) for letter in S3_LETTERS}
    for i in range(6):
        row_graphs = {letter: graphs[letter][i] for letter in S3_LETTERS}
        _theta_row_checks(out, row_graphs, cat.s3_theta_rows(), 432)

    # Type-2 sets and their groups
    for m in (2, 3):
        for group in cat.s3_t2_groups(m):
            for i in range(6):
                base = graphs[group[0]][i]
                orbit = type2_set(base, m)
                want = {graphs[L][i] for L in group}
                out.append(assertion(
                    f"T2 set m={m} of {base.label()}",
                    set(orbit.members) == want,
                    "{" + ",".join(sorted(g.label() for g in orbit.members)) + "}",
                ))
                out.append(assertion(
                    f"T2 group m={m} of {base.label()}",
                    type2_group_check(orbit).ok,
                    f"t-stabilizer {orbit.t_stabilizer}",
                ))
    return out


# family members whose theta rows and Type-2 sets section 4 checks
S4_MEMBER_INDICES = (1, 2)


def section4() -> list:
    """All embedded order-6750 assertions for family members 1 and 2."""
    cat = load()
    out = []

    # the A family is the full unit orbit of its seed
    family_a = cat.s4_family_a()
    orbit = type1_set(family_a[0])
    out.append(assertion(
        "T1 family A at 6750 has 30 members",
        len(orbit.members) == 30 and set(orbit.members) == set(family_a),
        f"{len(orbit.members)} members",
    ))
    for x, j in cat.s4_multiplier_rows():
        out.append(assertion(
            f"{x}*A1 = A{j}",
            adams_apply(family_a[0], x) == family_a[j - 1],
            family_a[j - 1].label(),
        ))
    table = type1_group_table(orbit)
    out.append(assertion(
        "T1 group table A at 6750",
        table.ok and table.associativity == "exhaustive",
        f"assoc={table.associativity}",
    ))

    # the fifteen coprime products reproduce the seeds
    for letter in S4_LETTERS:
        xk, zk = cat.s4["products"][letter]
        g, h = cat.s4_factor(xk), cat.s4_factor(zk)
        prod, witness = product_witness("coprime", g, h)
        out.append(assertion(
            f"{g.label()} x {h.label()} = seed {letter}",
            prod == cat.s4_seed(letter) and witness is not None and verify_witness(witness),
            prod.label(),
        ))

    # theta catalog rows for the checked member indices
    for idx in S4_MEMBER_INDICES:
        row_graphs = {letter: cat.s4_member(letter, idx) for letter in S4_LETTERS}
        _theta_row_checks(out, row_graphs, cat.s4_theta_rows(), 6750)
        nc = cat.s4_not_circulant()
        for t in nc["ts"]:
            cls = classify_theta(ThetaMap(6750, nc["m"], t), row_graphs["A"])
            out.append(assertion(
                f"theta(m={nc['m']},t={t}) on A_{idx} is not circulant",
                cls.kind == "not_circulant",
                f"got {cls.kind} (vertex {cls.failing_vertex})",
            ))

    # Type-2 sets led by the A family, both moduli, and their groups
    for idx in S4_MEMBER_INDICES:
        row_graphs = {letter: cat.s4_member(letter, idx) for letter in S4_LETTERS}
        for m in (3, 5):
            group = cat.s4_t2_groups(m)[0]
            base = row_graphs[group[0]]
            orbit2 = type2_set(base, m)
            want = {row_graphs[L] for L in group}
            out.append(assertion(
                f"T2 set m={m} of A_{idx} at 6750",
                set(orbit2.members) == want,
                f"{len(orbit2.members)} members, t-stabilizer head {orbit2.t_stabilizer[:4]}",
            ))
            out.append(assertion(
                f"T2 group m={m} of A_{idx} at 6750",
                type2_group_check(orbit2).ok,
                f"|t-stabilizer| = {len(orbit2.t_stabilizer)}",
            ))
    return out


# the catalog sections `reproduce --section` runs, by number
SECTIONS = {3: section3, 4: section4}
