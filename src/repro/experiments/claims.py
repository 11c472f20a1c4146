"""The paper's findings, stated once: one row per claim of Sections 6-7,
measured off the series the committed figures draw (ATM and FDDI, which no
figure draws, through the same ``_exec_series``).  A bound prints the
numbers it checks, so the ``claims`` artifact shows a moved value or a
loosened bound as a byte diff; ``tests/test_paper_claims.py`` asserts every
verdict.  A row with no bound is a known deviation (see EXPERIMENTS.md).
"""

from __future__ import annotations

from collections import namedtuple
from math import inf

from ..analysis import figures as fig
from ..analysis.metrics import balance_spread, crossover, minimum_location
from ..analysis.report import format_table
from ..machines.platforms import LACE_560_FDDI, LACE_590_ATM
from ..simulate.workload import EULER as EU, NAVIER_STOKES as NS

#: One paper finding; ``holds`` is ``None`` on a known deviation.
Claim = namedtuple("Claim", "key section paper measured bound holds",
                   defaults=("-", None))
TAG = {NS: "ns", EU: "euler"}


def _claim(key, section, paper, measured, xs, name, lo=-inf, hi=inf,
           closed=False) -> Claim:
    """A row that holds when ``lo < x < hi`` (``<=`` if ``closed``) for
    every x of ``xs``; its bound text prints the same ``lo`` and ``hi``."""
    bound = (" <= " if closed else " < ").join(
        [f"{lo:g}"] * (lo > -inf) + [name] + [f"{hi:g}"] * (hi < inf))
    holds = all(lo <= x <= hi if closed else lo < x < hi for x in xs)
    return Claim(key, section, paper, measured, bound, holds)


def claims() -> list[Claim]:
    """Every paper finding the reproduction measures, in paper order."""
    at = fig.PROC_GRID.index
    t = fig.fig02_versions().series["Navier-Stokes"]
    v1, v5 = (NS.total_flops / t[i] / 1e6 for i in (0, 4))
    p1, p5 = 9.3, 16.0
    gain = [t[i - 1] / t[i] for i in range(1, len(t))]
    rest = max(gain[:1] + gain[2:])
    rows = [
        _claim("mflops-ladder", "6, Fig 2", f"V1 -> V5: {p1} -> {p5} MFLOPS",
               f"{v1:.1f} -> {v5:.1f}", [abs(v1 - p1), abs(v5 - p5)],
               "|MFLOPS - paper|", hi=0.3),
        _claim("v2-v3-largest", "6, Fig 2", "V2 -> V3 (loop interchange) "
               "+50%, the largest gain", f"+{gain[1] - 1:.0%}; next "
               f"+{rest - 1:.0%}", [gain[1] / rest], "V3 gain / next", lo=1),
    ]
    lace = {a: fig.fig03_fig04_lace(a).series for a in TAG}
    for app, paper, hi in ((NS, 8, 10), (EU, 10, 12)):
        p, _ = minimum_location(fig.PROC_GRID, lace[app]["Ethernet"])
        rows.append(_claim(f"eth-peak-{TAG[app]}", "7.1, Fig 3/4", "Ethernet "
                           f"peaks at {paper} procs ({app.name})", f"p = {p}",
                           [p], "p", 6, hi, closed=True))
    s = lace[NS]["ALLNODE-S"]
    step = [b / a for a, b in zip(s, s[1:])]
    fs = [a / b for ap in TAG
          for a, b in zip(lace[ap]["ALLNODE-S"], lace[ap]["ALLNODE-F"])]
    flat = s[at(8)] / s[at(16)]
    rows += [
        _claim("allnode-s-scales", "7.1, Fig 3", "ALLNODE-S keeps improving "
               "to 16 procs", f"x{max(step):.2f} at most", step,
               "T(next p)/T(p)", hi=1),
        _claim("f-over-s", "7.1, Fig 3/4", "ALLNODE-F 70-80% faster than "
               "ALLNODE-S", f"x{min(fs):.2f} .. x{max(fs):.2f}", fs, "S/F",
               1.5, 2.0),
        _claim("sublinear-8-16", "7.1, Fig 3", "ALLNODE-S sublinear beyond 12 "
               "procs", f"x{flat:.2f}", [flat], "T(8)/T(16)", hi=1.85),
    ]
    for key, plat, ref, paper, tol in (
        ("atm-vs-f", LACE_590_ATM, "ALLNODE-F", "ATM almost like", 0.05),
        ("fddi-vs-s", LACE_560_FDDI, "ALLNODE-S", "FDDI close to", 0.12),
    ):
        dev = max(abs(x / lace[NS][ref][at(p)] - 1) for x, p in
                  zip(fig._exec_series(plat, NS, (4, 8, 16)), (4, 8, 16)))
        rows.append(_claim(key, "7.1, text", f"{paper} {ref}", f"{dev:.1%} "
                           "at p = 4, 8, 16", [dev], f"|T/{ref} - 1|", hi=tol))
    comp = {a: fig.fig05_fig06_components(a).series for a in TAG}
    busy, comm = comp[NS]["LACE/560 busy"], comp[NS]["ALLNODE-S comm"]
    share = [comm[at(p)] / busy[at(p)] for p in (2, 16)]
    eu16 = comp[EU]["ALLNODE-S comm"][-1] / comp[EU]["LACE/560 busy"][-1]
    fall = busy[at(2)] / busy[at(16)]
    rows += [
        _claim("busy-falls", "7.1, Fig 5", "busy time falls ~1/p",
               f"x{fall:.1f}", [fall], "busy(2)/busy(16)", lo=5),
        _claim("comm-share-grows", "7.1, Fig 5", "comm grows relative to "
               "busy", f"comm/busy {share[0]:.3f} -> {share[1]:.3f}",
               [share[1] / share[0]], "share(16)/share(2)", lo=1),
        Claim("comm-busy-16", "7.1, Fig 5/6", "comm/busy at p = 16: ~1.0 "
              "N-S, ~0.6 Euler", f"{share[1]:.2f} N-S, {eu16:.2f} Euler"),
    ]
    vers = {a: fig.fig07_fig08_comm_versions(a).series for a in TAG}
    for app in TAG:
        v5, v6 = vers[app]["V5 ALLNODE-S"], vers[app]["V6 ALLNODE-S"]
        d = [v6[at(p)] / v5[at(p)] - 1 for p in (8, 16)]
        rows.append(_claim(f"v6-vs-v5-{TAG[app]}", "7.1, Fig 7/8", "V6 gains "
                           f"minimal or worse ({app.name})", f"{d[0]:+.1%} at "
                           f"p = 8, {d[1]:+.1%} at 16", map(abs, d),
                           "|V6/V5 - 1|", hi=0.12))
    v7s, v7e = (vers[NS][f"V7 {n}"][at(p)] / vers[NS][f"V5 {n}"][at(p)]
                for n, p in (("ALLNODE-S", 16), ("Ethernet", 8)))
    rows += [
        _claim("v7-allnode-s", "7.1, Fig 7", "V7 appreciably worse on "
               "ALLNODE-S", f"x{v7s:.3f} at p = 16", [v7s], "V7/V5", lo=1),
        _claim("v7-ethernet", "7.1, Fig 7", "V7 better on Ethernet near "
               "saturation", f"x{v7e:.3f} at p = 8", [v7e], "V7/V5", hi=1.02),
    ]
    plat = {a: fig.fig09_fig10_platforms(a).series for a in TAG}
    for key, apps, fast, slow, name, paper in (
        ("s-beats-sp", [NS], "ALLNODE-S", "IBM SP (MPL)", "SP/S",
         "LACE, even with ALLNODE-S, outperforms SP"),
        ("f-beats-t3d", [NS], "ALLNODE-F", "Cray T3D", "T3D/F",
         "T3D consistently worse than ALLNODE-F"),
        ("t3d-beats-sp", TAG, "Cray T3D", "IBM SP (MPL)", "SP/T3D",
         "T3D superior to SP"),
    ):
        r = [b / a for ap in apps
             for a, b in zip(plat[ap][fast], plat[ap][slow])]
        rows.append(_claim(key, "7.2, Fig 9/10", paper, f"x{min(r):.2f} .. "
                           f"x{max(r):.2f}", r, name, lo=1))
    pn = plat[NS]
    x = crossover(fig.PROC_GRID, pn["Cray T3D"], pn["ALLNODE-S"])
    speedup = [pn[k][0] / pn[k][-1] for k in ("Cray T3D", "IBM SP (MPL)")]
    ymp1, ymp8 = pn["Cray Y-MP"][0], pn["Cray Y-MP"][at(8)]
    best = min(min(s) for k, s in pn.items() if k != "Cray Y-MP")
    af16 = pn["ALLNODE-F"][at(16)]
    rows += [
        _claim("t3d-crosses-s", "7.2, Fig 9", "T3D worse than ALLNODE-S "
               "below 8 procs, better beyond", f"first at or below at p = {x}",
               [inf if x is None else x], "p", 6, 12, closed=True),
        _claim("speedup-16", "7.2, Fig 9", "T3D and SP speedups almost "
               "linear", "x{:.1f} T3D, x{:.1f} SP".format(*speedup), speedup,
               "T(1)/T(16)", lo=11),
        _claim("ymp-best", "7.2, Fig 9", "Y-MP by far the best", f"{ymp8:,.0f}"
               f" s at p = 8, best other {best:,.0f} s", [ymp8 / best],
               "Y-MP(8)/best other", hi=0.5),
        _claim("lace590x16-vs-ymp1", "7.2, Fig 9", "LACE/590 x16 comparable "
               "to Y-MP x1", f"{af16:,.0f} s vs {ymp1:,.0f} s", [af16 / ymp1],
               "590(16)/Y-MP(1)", 0.5, 1.5),
    ]
    libs = {a: fig.fig11_fig12_libraries(a).series for a in TAG}
    gap, busy_share = {}, []
    for app, paper in ((NS, 75), (EU, 40)):
        s = libs[app]
        r = [(s["busy (PVMe)"][at(p)] + s["comm (PVMe)"][at(p)])
             / (s["busy (MPL)"][at(p)] + s["comm (MPL)"][at(p)])
             for p in (8, 16)]
        gap[app] = r[1] - 1
        db, dc = (s[f"{q} (PVMe)"][-1] - s[f"{q} (MPL)"][-1]
                  for q in ("busy", "comm"))
        busy_share.append(db / (db + dc))
        rows.append(_claim(f"mpl-vs-pvme-{TAG[app]}", "7.3, Fig 11/12", "MPL "
                           f"faster than PVMe, ~{paper}% ({app.name})",
                           f"x{r[0]:.2f} at p = 8, x{r[1]:.2f} at 16", r,
                           "PVMe/MPL", 1.25, 2.2))
    sp_comm = libs[NS]["comm (MPL)"][-1] / libs[NS]["busy (MPL)"][-1]
    spread = balance_spread(fig.fig13_load_balance().series["busy time"])
    return rows + [
        _claim("mpl-gap-busy", "7.3, Fig 11/12", "the PVMe-MPL gap lives in "
               "busy time", "{:.0%} N-S, {:.0%} Euler at p = 16".format(
                   *busy_share), busy_share, "busy share of gap", lo=0.5),
        Claim("mpl-gap-order", "7.3, Fig 11/12", "MPL gap larger for N-S "
              "(~75%) than Euler (~40%)", f"{gap[NS]:.0%} N-S, "
              f"{gap[EU]:.0%} Euler at p = 16"),
        _claim("sp-comm", "7.3, Fig 11", "non-overlapped comm on the SP "
               "negligibly small", f"{sp_comm:.1%} at p = 16", [sp_comm],
               "comm/busy", hi=0.1),
        _claim("balance", "7.4, Fig 13", "almost perfect load balancing",
               f"{spread:.1%} on 16 SP ranks", [spread], "busy spread",
               hi=0.05),
    ]


def render() -> str:
    """The ``claims`` experiment: the table, one row per finding."""
    verdict = {None: "-", True: "holds", False: "FAILS"}
    rows = [[*c[:5], verdict[c.holds]] for c in claims()]
    return format_table(["id", "section", "paper", "measured", "bound",
                         "verdict"], rows) + (
        f"\n\nMeasured at a {fig.STEPS_WINDOW}-step DES window; a verdict "
        "holds when every measured x is inside its bound.")
