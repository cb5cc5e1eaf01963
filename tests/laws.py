"""The laws of a short (skew) multicategory, of a category and of a skew
monoidal, braided and skew closed category, written from the papers as
data, and one evaluator.

A structure is read through its dataclass fields only: the base's
`objects`, `homs`, `comp` and `ids`, the multimap tables (`maps`, or
`tight` and `loose`), `j`, `pre`, `post` and `sub`, the tensor's
`tensor_obj`, `tensor_mor`, `unit`, `alpha`, `lam` and `rho`, a braiding's
`s` and `s_inv`, and the closed structure's `hom_obj`, `hom_mor`, `unit`,
`iu`, `ju` and `ell`. Nothing here reads an index, a lookup dict, an
accessor or a check kernel of the package, so the validators are checked
against the definitions and not against their own history.

Every family except typing is a list of `Law` rows. A row names its
family, the literal head of its subjects, its variables with their ranges,
the subjects after the head, and its two sides as lookup chains over the
raw tables. The routing is the paper's unary one: a base morphism composes
in the base, and substituting one, or into one, is a pre or post action.
An instance fails when its sides differ or its left side is undefined, and
it is printed with the validator's subjects and sides. The skew monoidal
rows follow Szlachanyi, "Skew-monoidal categories and bialgebroids" (Adv.
Math. 2012), and the skew closed ones Street, "Skew-closed categories"
(JPAA 2013).

Ranges (a type is (flavour, arity): "m" for every map of a plain
structure, "t" tight and "l" loose in a skew one):
    ("maps", ty)          the maps of type ty that are not base morphisms
    ("maps", ty, x)       those of them with codomain x
    ("listed", ty)        every id the table of ty lists, base ones too
    ("every",)            every map that is not a base morphism, once
    ("slots", f)          1 .. arity of f; ("slots", f, "<" or ">", i)
                          only those below or above slot i
    ("into", x), ("out", x)   the base morphisms into or out of object x
    ("morphisms",)        every base morphism
    ("objects",)          every object of the base
    ("=", a, b)           no variable: keeps the instances where a == b
Terms: a variable, an int, ("dom", f, i) the i-th input of f, ("cod", f),
("arity", f), ("id", x), ("comp", q, p) q after p, ("post", q, f)
q o f, ("pre", f, i, p) f o_i p, ("sub", g, i, f) g o_i f, ("j", f),
("+", a, b, ...) a sum of slots, ("unit",), (name, key, ...) the entry of
the structure map name at the key, ("span", f) the printed (domain,
codomain) of a base morphism and ("pair", a, b) the printed pair.
"""
import functools
import re
from collections import namedtuple

from shortcat.report import ValidationReport

Law = namedtuple("Law", "family head binders subjects lhs rhs")

PLAIN_CASES = ((("m", 2), ("m", 2)), (("m", 3), ("m", 2)), (("m", 2), ("m", 3)),
               (("m", 2), ("m", 0)), (("m", 3), ("m", 0)))
SKEW_CASES = ((("t", 2), ("t", 2)), (("t", 3), ("t", 2)), (("t", 2), ("t", 3)),
              (("t", 2), ("l", 0)), (("t", 3), ("l", 0)), (("l", 1), ("l", 0)),
              (("t", 2), ("l", 1)), (("l", 1), ("t", 2)))

# unit laws and the pre/post actions on every map that is not a base morphism
F_SLOT = (("f", ("every",)), ("i", ("slots", "f")))
ACTIONS = (
    Law("identity", ("post",), (("f", ("every",)),), (("cod", "f"), "f"),
        ("post", ("id", ("cod", "f")), "f"), "f"),
    Law("identity", ("pre",), F_SLOT, ("f", "i"),
        ("pre", "f", "i", ("id", ("dom", "f", "i"))), "f"),
    Law("profunctor", ("post-post",),
        (("f", ("every",)), ("q", ("out", ("cod", "f"))), ("q2", ("out", ("cod", "q")))),
        ("q2", "q", "f"), ("post", "q2", ("post", "q", "f")), ("post", ("comp", "q2", "q"), "f")),
    Law("profunctor", ("pre-pre",),
        F_SLOT + (("p", ("into", ("dom", "f", "i"))), ("p2", ("into", ("dom", "p", 1)))),
        ("f", "i", "p", "p2"),
        ("pre", ("pre", "f", "i", "p"), "i", "p2"), ("pre", "f", "i", ("comp", "p", "p2"))),
    Law("profunctor", ("pre-post",),
        F_SLOT + (("p", ("into", ("dom", "f", "i"))), ("q", ("out", ("cod", "f")))),
        ("q", "f", "i", "p"),
        ("post", "q", ("pre", "f", "i", "p")), ("pre", ("post", "q", "f"), "i", "p")),
    Law("profunctor", ("pre-commute",),
        F_SLOT + (("j", ("slots", "f", ">", "i")), ("p", ("into", ("dom", "f", "i"))),
                  ("p2", ("into", ("dom", "f", "j")))),
        ("f", "i", "p", "j", "p2"),
        ("pre", ("pre", "f", "i", "p"), "j", "p2"), ("pre", ("pre", "f", "j", "p2"), "i", "p")),
)


def _naturality(tag: tuple, outer: tuple, inner: tuple) -> tuple:
    """Naturality of the stored substitution g o_i f of one case in each
    variable, and its dinaturality in the substituted one."""
    g_i_f = (("g", ("maps", outer)), ("i", ("slots", "g")),
             ("f", ("maps", inner, ("dom", "g", "i"))))
    gif = ("sub", "g", "i", "f")
    return (
        Law("nat-in-a", tag, g_i_f + (("t", ("slots", "f")), ("p", ("into", ("dom", "f", "t")))),
            ("g", "i", "f", "t", "p"),
            ("sub", "g", "i", ("pre", "f", "t", "p")), ("pre", gif, ("+", "i", "t", -1), "p")),
        Law("nat-in-b", tag, g_i_f + (("j", ("slots", "g", "<", "i")),
                                      ("p", ("into", ("dom", "g", "j")))),
            ("g", "i", "f", "j", "p"),
            ("sub", ("pre", "g", "j", "p"), "i", "f"), ("pre", gif, "j", "p")),
        Law("nat-in-b", tag, g_i_f + (("j", ("slots", "g", ">", "i")),
                                      ("p", ("into", ("dom", "g", "j")))),
            ("g", "i", "f", "j", "p"),
            ("sub", ("pre", "g", "j", "p"), "i", "f"),
            ("pre", gif, ("+", "j", ("arity", "f"), -1), "p")),
        Law("nat-in-c", tag, g_i_f + (("q", ("out", ("cod", "g"))),),
            ("q", "g", "i", "f"),
            ("post", "q", gif), ("sub", ("post", "q", "g"), "i", "f")),
        # (g o_i w) o_i f = g o_i (w o f) for w : x -> e, e the slot i of g
        Law("dinat-in-b", tag,
            (("g", ("listed", outer)), ("i", ("slots", "g")), ("w", ("into", ("dom", "g", "i"))),
             ("f", ("maps", inner, ("dom", "w", 1)))),
            ("g", "i", "w", "f"),
            ("sub", ("pre", "g", "i", "w"), "i", "f"), ("sub", "g", "i", ("post", "w", "f"))),
    )


def _associativity(binary: tuple, nullary: tuple) -> tuple:
    """f o_i (g o_j h) = (f o_i g) o_{i+j-1} h (line) and the interchange
    (f o_1 g) o_{n+1} h = (f o_2 h) o_1 g (notline), f binary and g, h of the
    arities of each case."""
    pool = {2: binary, 0: nullary}
    laws = []
    for case, (gn, hn) in zip("ab", ((2, 2), (2, 0))):
        laws.append(Law(
            f"assoc-line-{case}", (),
            (("f", ("maps", binary)), ("i", ("slots", "f")),
             ("g", ("maps", pool[gn], ("dom", "f", "i"))), ("j", ("slots", "g")),
             ("h", ("maps", pool[hn], ("dom", "g", "j")))),
            ("f", "i", "g", "j", "h"),
            ("sub", "f", "i", ("sub", "g", "j", "h")),
            ("sub", ("sub", "f", "i", "g"), ("+", "i", "j", -1), "h")))
    for case, (gn, hn) in zip("abcd", ((2, 2), (2, 0), (0, 2), (0, 0))):
        laws.append(Law(
            f"assoc-notline-{case}", (),
            (("f", ("maps", binary)), ("g", ("maps", pool[gn], ("dom", "f", 1))),
             ("h", ("maps", pool[hn], ("dom", "f", 2)))),
            ("f", "g", "h"),
            ("sub", ("sub", "f", 1, "g"), gn + 1, "h"), ("sub", ("sub", "f", 2, "h"), 1, "g")))
    return tuple(laws)


# j on a base morphism p: a -> b is natural with the tight binaries, the
# morphisms out of b and the maps into a; and j is determined by j(1)
B, N = ("t", 2), ("l", 0)
J_LAWS = (
    Law("j-nat", ("g-pos2",),
        (("p", ("morphisms",)), ("g", ("maps", B)), (None, ("=", ("dom", "g", 2), ("cod", "p")))),
        ("g", "p"), ("sub", "g", 2, ("j", "p")), ("pre", "g", 2, "p")),
    Law("j-nat", ("g-pos1",),
        (("p", ("morphisms",)), ("g", ("maps", B)), (None, ("=", ("dom", "g", 1), ("cod", "p")))),
        ("g", "p"), ("sub", "g", 1, ("j", "p")), ("j", ("pre", "g", 1, "p"))),
    Law("j-nat", ("post",), (("p", ("morphisms",)), ("q", ("out", ("cod", "p")))),
        ("q", "p"), ("post", "q", ("j", "p")), ("j", ("comp", "q", "p"))),
    Law("j-nat", ("into-binary",), (("p", ("morphisms",)), ("g", ("maps", B, ("dom", "p", 1)))),
        ("p", "g"), ("sub", ("j", "p"), 1, "g"), ("j", ("post", "p", "g"))),
    Law("j-nat", ("into-nullary",), (("p", ("morphisms",)), ("v", ("maps", N, ("dom", "p", 1)))),
        ("p", "v"), ("sub", ("j", "p"), 1, "v"), ("post", "p", "v")),
    Law("j-derived", ("binary",), (("g", ("maps", B)),),
        ("g",), ("j", "g"), ("sub", "g", 1, ("j", ("id", ("dom", "g", 1))))),
    Law("j-derived", ("unary",), (("q", ("morphisms",)),),
        ("q",), ("j", "q"), ("post", "q", ("j", ("id", ("dom", "q", 1))))),
)

PLAIN_LAWS = (ACTIONS + sum((_naturality((), *case) for case in PLAIN_CASES), ())
              + _associativity(("m", 2), ("m", 0)))
SKEW_LAWS = (ACTIONS + J_LAWS
             + sum((_naturality((f"{x}{n}-{y}{k}",), (x, n), (y, k))
                    for (x, n), (y, k) in SKEW_CASES), ())
             + _associativity(B, N))


# -- categories, skew monoidal, braided and skew closed categories -----------
# Terms over the base and the structure maps, each a lookup in the field of
# its name: T(a, b) the tensor of objects, tm(f, g) of morphisms, H(a, b) the
# hom object, hm(f, g) [f, g], one(x) the identity of x and I the unit.
def _field(name):
    return lambda *key: (name, *key)


T, tm, alpha, lam, rho = map(_field, ("tensor_obj", "tensor_mor", "alpha", "lam", "rho"))
s, s_inv = map(_field, ("s", "s_inv"))
H, hm, iu, ju, ell = map(_field, ("hom_obj", "hom_mor", "iu", "ju", "ell"))
one, I = _field("id"), ("unit",)
STRUCTURE_FIELDS = ("tensor_obj", "tensor_mor", "unit", "alpha", "lam", "rho", "s", "s_inv",
                    "hom_obj", "hom_mor", "iu", "ju", "ell")


def dom(f):
    return ("dom", f, 1)


def cod(f):
    return ("cod", f)


def after(*ms):
    """m1 o (m2 o (... o mk)), composed in the base."""
    return ms[0] if len(ms) == 1 else ("comp", ms[0], after(*ms[1:]))


def _each(kind, names):
    return tuple((v, (kind,)) for v in names)


A, AB, ABX, ABXD = (_each("objects", "abxd"[:k]) for k in (1, 2, 3, 4))
F, FG, FGH = (_each("morphisms", names) for names in (("f",), ("f", "g"), ("f", "g", "h")))
# f2 after f and g2 after g
F2G2 = (("f2", ("out", cod("f"))), ("g2", ("out", cod("g"))))

# the identity, typing and associativity laws of a category
CATEGORY_LAWS = (
    Law("identity", (), F, (one(cod("f")), "f"), after(one(cod("f")), "f"), "f"),
    Law("identity", (), F, ("f", one(dom("f"))), after("f", one(dom("f"))), "f"),
    Law("comp-typing", (), F + (("g", ("out", cod("f"))),), ("g", "f"),
        ("span", after("g", "f")), ("pair", dom("f"), cod("g"))),
    Law("assoc", (), F + (("g", ("out", cod("f"))), ("h", ("out", cod("g")))),
        ("h", "g", "f"), after("h", after("g", "f")), after(after("h", "g"), "f")),
)

# a (left) skew monoidal category, Szlachanyi's alpha: (ab)x -> a(bx),
# lambda: ia -> a and rho: a -> ai, with his five axioms
SKEW_MONOIDAL_LAWS = (
    Law("tensor-typing", (), FG, ("f", "g"),
        ("span", tm("f", "g")), ("pair", T(dom("f"), dom("g")), T(cod("f"), cod("g")))),
    Law("tensor-comp", (), FG + F2G2, ("f2", "f", "g2", "g"),
        tm(after("f2", "f"), after("g2", "g")), after(tm("f2", "g2"), tm("f", "g"))),
    Law("tensor-id", (), AB, ("a", "b"), tm(one("a"), one("b")), one(T("a", "b"))),
    Law("alpha-typing", (), ABX, ("a", "b", "x"),
        ("span", alpha("a", "b", "x")), ("pair", T(T("a", "b"), "x"), T("a", T("b", "x")))),
    Law("lambda-typing", (), A, ("a",), ("span", lam("a")), ("pair", T(I, "a"), "a")),
    Law("rho-typing", (), A, ("a",), ("span", rho("a")), ("pair", "a", T("a", I))),
    Law("nat-alpha", (), FGH, ("f", "g", "h"),
        after(alpha(cod("f"), cod("g"), cod("h")), tm(tm("f", "g"), "h")),
        after(tm("f", tm("g", "h")), alpha(dom("f"), dom("g"), dom("h")))),
    Law("nat-lambda", (), F, ("f",),
        after(lam(cod("f")), tm(one(I), "f")), after("f", lam(dom("f")))),
    Law("nat-rho", (), F, ("f",),
        after(rho(cod("f")), "f"), after(tm("f", one(I)), rho(dom("f")))),
    Law("pentagon", (), ABXD, ("a", "b", "x", "d"),
        after(alpha("a", "b", T("x", "d")), alpha(T("a", "b"), "x", "d")),
        after(tm(one("a"), alpha("b", "x", "d")), alpha("a", T("b", "x"), "d"),
              tm(alpha("a", "b", "x"), one("d")))),
    Law("left-unit", (), AB, ("a", "b"),
        after(lam(T("a", "b")), alpha(I, "a", "b")), tm(lam("a"), one("b"))),
    Law("right-unit", (), AB, ("a", "b"),
        after(alpha("a", "b", I), rho(T("a", "b"))), tm(one("a"), rho("b"))),
    Law("middle-unit", (), AB, ("a", "b"),
        after(tm(one("a"), lam("b")), alpha("a", I, "b"), tm(rho("a"), one("b"))),
        one(T("a", "b"))),
    Law("unit-unit", (), (), (I,), after(lam(I), rho(I)), one(I)),
)


# a braiding s: (xa)b -> (xb)a with its inverse, natural, with the hexagon
# and three compatibilities with alpha; SAE, SBE and AXE are the composites
# that more than one of them reads
XAB, XABE = _each("objects", "xab"), _each("objects", "xabe")
SAE = after(tm(s("x", "a", "e"), one("b")), s(T("x", "a"), "b", "e"))
SBE = after(s(T("x", "b"), "a", "e"), tm(s("x", "a", "b"), one("e")))
AXE = tm(alpha("x", "a", "b"), one("e"))
BRAIDING_LAWS = (
    Law("s-typing", (), XAB, ("x", "a", "b"),
        ("span", s("x", "a", "b")), ("pair", T(T("x", "a"), "b"), T(T("x", "b"), "a"))),
    Law("s-inverse", (), XAB, ("x", "a", "b"),
        ("pair", after(s_inv("x", "a", "b"), s("x", "a", "b")),
         after(s("x", "a", "b"), s_inv("x", "a", "b"))),
        ("pair", one(T(T("x", "a"), "b")), one(T(T("x", "b"), "a")))),
    Law("s-nat", (), FGH, ("f", "g", "h"),
        after(s(cod("f"), cod("g"), cod("h")), tm(tm("f", "g"), "h")),
        after(tm(tm("f", "h"), "g"), s(dom("f"), dom("g"), dom("h")))),
    Law("braid-hexagon", (), XABE, ("x", "a", "b", "e"),
        after(s(T("x", "e"), "a", "b"), SAE), after(tm(s("x", "b", "e"), one("a")), SBE)),
    Law("braid-alpha-right", (), XABE, ("x", "a", "b", "e"),
        after(tm(alpha("x", "b", "e"), one("a")), SBE),
        after(s("x", "a", T("b", "e")), alpha(T("x", "a"), "b", "e"))),
    Law("braid-alpha-left", (), XABE, ("x", "a", "b", "e"),
        after(alpha(T("x", "e"), "a", "b"), SAE), after(s("x", T("a", "b"), "e"), AXE)),
    Law("braid-alpha-inner", (), XABE, ("x", "a", "b", "e"),
        after(tm(one("x"), s("a", "b", "e")), alpha("x", T("a", "b"), "e"), AXE),
        after(alpha("x", T("a", "e"), "b"), tm(alpha("x", "a", "e"), one("b")),
              s(T("x", "a"), "b", "e"))),
)

# a left skew closed category, after Street: [-, -] contravariant in its
# first argument, I: [i, a] -> a, J: i -> [a, a] and L: [b, x] -> [[a, b], [a, x]]
FAX = F + _each("objects", "ax")
SKEW_CLOSED_LAWS = (
    Law("hom-typing", (), FG, ("f", "g"),
        ("span", hm("f", "g")), ("pair", H(cod("f"), dom("g")), H(dom("f"), cod("g")))),
    Law("hom-comp", (), FG + F2G2, ("f2", "f", "g2", "g"),
        hm(after("f2", "f"), after("g2", "g")), after(hm("f", "g2"), hm("f2", "g"))),
    Law("hom-id", (), AB, ("a", "b"), hm(one("a"), one("b")), one(H("a", "b"))),
    Law("I-typing", (), A, ("a",), ("span", iu("a")), ("pair", H(I, "a"), "a")),
    Law("J-typing", (), A, ("a",), ("span", ju("a")), ("pair", I, H("a", "a"))),
    Law("L-typing", (), ABX, ("a", "b", "x"),
        ("span", ell("a", "b", "x")), ("pair", H("b", "x"), H(H("a", "b"), H("a", "x")))),
    Law("nat-I", (), F, ("f",), after(iu(cod("f")), hm(one(I), "f")), after("f", iu(dom("f")))),
    Law("dinat-J", (), F, ("f",),
        after(hm(one(dom("f")), "f"), ju(dom("f"))), after(hm("f", one(cod("f"))), ju(cod("f")))),
    Law("nat-L-contra", (), FAX, ("a", "f", "x"),
        after(ell("a", dom("f"), "x"), hm("f", one("x"))),
        after(hm(hm(one("a"), "f"), one(H("a", "x"))), ell("a", cod("f"), "x"))),
    Law("nat-L-co", (), FAX, ("a", "x", "f"),
        after(hm(one(H("a", "x")), hm(one("a"), "f")), ell("a", "x", dom("f"))),
        after(ell("a", "x", cod("f")), hm(one("x"), "f"))),
    Law("dinat-L", (), FAX, ("f", "a", "x"),
        after(hm(hm("f", one("a")), one(H(dom("f"), "x"))), ell(dom("f"), "a", "x")),
        after(hm(one(H(cod("f"), "a")), hm("f", one("x"))), ell(cod("f"), "a", "x"))),
    Law("L-pentagon", (), ABXD, ("a", "b", "x", "d"),
        after(hm(ell("a", "b", "x"), one(H(H("a", "b"), H("a", "d")))),
              ell(H("a", "b"), H("a", "x"), H("a", "d")), ell("a", "x", "d")),
        after(hm(one(H("b", "x")), ell("a", "b", "d")), ell("b", "x", "d"))),
    Law("L-J-collapse", (), AB, ("a", "b"),
        after(iu(H("a", "b")), hm(ju("a"), one(H("a", "b"))), ell("a", "a", "b")),
        one(H("a", "b"))),
    Law("J-L-triangle", (), AB, ("a", "b"), after(ell("a", "b", "b"), ju("b")), ju(H("a", "b"))),
    Law("L-I-compat", (), AB, ("a", "b"),
        after(hm(one(H(I, "a")), iu("b")), ell(I, "a", "b")), hm(iu("a"), one("b"))),
    Law("I-J-unit", (), (), (I,), after(iu(I), ju(I)), one(I)),
)

# the rows of each kind of structure, by the name of its class
LAWS = {"ShortMulticategory": PLAIN_LAWS, "ShortSkewMulticategory": SKEW_LAWS,
        "FinCategory": CATEGORY_LAWS, "SkewMonCategory": SKEW_MONOIDAL_LAWS,
        "Braiding": BRAIDING_LAWS, "SkewClosedCategory": SKEW_CLOSED_LAWS}


def is_skew(m) -> bool:
    return hasattr(m, "tight")


def raw_tables(m) -> dict:
    """The multimap tables of m by type, as its fields hold them."""
    if is_skew(m):
        return {**{("t", n): table for n, table in m.tight.items()},
                **{("l", n): table for n, table in m.loose.items()}}
    return {("m", n): table for n, table in m.maps.items()}


class Tables:
    """The ranges, the structure maps and the unary routing of one structure
    (with its braiding, if given), from its fields."""

    def __init__(self, m, braid=None):
        base = m.base if hasattr(m, "base") else m
        self.objects, self.comp, self.ids = base.objects, base.comp, base.ids
        for part in (m, braid):
            for name in STRUCTURE_FIELDS:
                if hasattr(part, name):
                    setattr(self, name, getattr(part, name))
        self.typed = {}      # id -> (domain, codomain)
        self.spans = {}      # base morphism -> (domain, codomain)
        self.flavours = {}   # id -> the flavours whose tables list it
        self.into, self.out = {}, {}
        for (a, b), ps in base.homs.items():
            for p in ps:
                self.typed[p], self.spans[p] = ((a,), b), (a, b)
                self.flavours[p] = {"t"}
                self.into.setdefault(b, []).append(p)
                self.out.setdefault(a, []).append(p)
        self.morphisms = dict.fromkeys(self.typed)  # the base morphisms, in hom-set order
        self.listed, self.maps, self.with_cod = {}, {}, {}
        if hasattr(m, "pre"):  # a short (skew) multicategory
            self.pre_table, self.post_table, self.sub_table = m.pre, m.post, m.sub
            self.j_table = m.j if is_skew(m) else {}
            for ty, table in raw_tables(m).items():
                for (ins, c), fs in table.items():
                    for f in fs:
                        self.typed.setdefault(f, (tuple(ins), c))
                        self.flavours.setdefault(f, set()).add(ty[0])
                        self.listed.setdefault(ty, []).append(f)
                        if f not in self.morphisms:
                            self.maps.setdefault(ty, []).append(f)
                            self.with_cod.setdefault((ty, c), []).append(f)
        self.every = list(dict.fromkeys(f for fs in self.maps.values() for f in fs))

    # -- the unary routing ------------------------------------------------
    def post(self, q, f):
        """q o f: composition in the base when f is a base morphism."""
        if f in self.morphisms:
            return self.comp.get((q, f))
        return self.post_table.get((q, f))

    def pre(self, f, i, p):
        """f o_i p: composition in the base when f is a base morphism."""
        if f in self.morphisms:
            return self.comp.get((f, p)) if i == 1 else None
        return self.pre_table.get((f, i, p))

    def sub(self, g, i, f):
        """g o_i f: a pre action when f is a base morphism, a post action
        when g is one."""
        if f in self.morphisms:
            return self.pre(g, i, f)
        if g in self.morphisms:
            return self.post(g, f) if i == 1 else None
        return self.sub_table.get((g, i, f))

    def j(self, f):
        return self.j_table.get(f)


# -- the evaluator -----------------------------------------------------------
# Each row compiles once to a Python function of the structure's Tables:
# one loop per variable, then the two sides; print source(law) to read it.
# A compiled row reads those of these attributes of Tables that it uses,
# each as a local _name.
_READS = ("typed", "ids", "comp", "post", "pre", "sub", "j", "every", "morphisms", "into",
          "out", "listed", "maps", "with_cod", "objects", "spans") + STRUCTURE_FIELDS

_TERMS = {"dom": "_typed[{0}][0][{1} - 1]", "cod": "_typed[{0}][1]",
          "arity": "len(_typed[{0}][0])", "id": "_ids.get({0})", "comp": "_comp.get(({0}, {1}))",
          "post": "_post({0}, {1})", "pre": "_pre({0}, {1}, {2})", "sub": "_sub({0}, {1}, {2})",
          "j": "_j({0})", "span": "str(_spans.get({0}))", "pair": "str(({0}, {1}))",
          "unit": "_unit"}


def _term(t) -> str:
    if not isinstance(t, tuple):
        return str(t)  # a variable or an int
    op, *args = t
    if op == "+":
        return "(" + " + ".join(map(_term, args)) + ")"
    if op in _TERMS:
        return _TERMS[op].format(*map(_term, args))
    key = ", ".join(map(_term, args))  # a structure map, keyed by one id or a tuple
    return f"_{op}.get({key if len(args) == 1 else '(' + key + ')'})"


def _range(r) -> str:
    kind, *args = r
    if kind in ("every", "morphisms", "objects"):
        return f"_{kind}"
    if kind in ("into", "out"):
        return f"_{kind}.get({_term(args[0])}, ())"
    if kind == "listed" or (kind == "maps" and len(args) == 1):
        return f"_{kind}.get({args[0]!r}, ())"
    if kind == "maps":
        return f"_with_cod.get(({args[0]!r}, {_term(args[1])}), ())"
    if kind == "slots":
        f, *bound = args
        arity = _term(("arity", f))
        if not bound:
            return f"range(1, {arity} + 1)"
        return f"range(1, {bound[1]})" if bound[0] == "<" else f"range({bound[1]} + 1, {arity} + 1)"
    assert kind == "=", r
    return f"(True,) if {_term(args[0])} == {_term(args[1])} else ()"


def source(law: Law) -> str:
    """The Python source of check(tables, fail, keep), which checks every
    instance of the row that keep (None, or a predicate of the row's
    variables in order) keeps, calls fail(family, subjects, lhs, rhs) for
    each failing one and returns their number."""
    names = [var for var, _ in law.binders if var]
    lines, indent = [], "    "
    for var, r in law.binders:
        lines.append(f"{indent}for {var or '_'} in {_range(r)}:")
        indent += "    "
    subjects = "".join(f"str({_term(t)}), " for t in law.subjects)
    lines += [f"{indent}if keep is None or keep({', '.join(names)}):",
              f"{indent}    n += 1",
              f"{indent}    lhs, rhs = {_term(law.lhs)}, {_term(law.rhs)}",
              f"{indent}    if lhs != rhs or lhs is None:",
              f"{indent}        fail({law.family!r}, {law.head!r} + ({subjects}), lhs, rhs)",
              "    return n"]
    reads = [a for a in _READS if re.search(rf"\b_{a}\b", "\n".join(lines))]
    return "\n".join(["def check(tables, fail, keep):",
                      f"    {''.join('_' + a + ', ' for a in reads)}n = "
                      f"{''.join('tables.' + a + ', ' for a in reads)}0"] + lines)


@functools.cache
def compiled(law: Law):
    scope: dict = {}
    exec(source(law), scope)
    return scope["check"]


def typing(m, tables: Tables, report: ValidationReport) -> None:
    """Each pre, post and sub entry has the type its key gives it: the
    arity, domain and codomain, and in a skew structure a pre or post result
    holds every flavour of its map (a sub result's flavour is the structure
    check's, printed True)."""
    typed, flavours, skew = tables.typed, tables.flavours, is_skew(m)

    def check(subjects, result, want, of=None):
        dom, cod = typed[result]
        have = (len(dom), dom, cod)
        held = not skew or of is None or flavours[of] <= flavours[result]
        if have != want or not held:
            if skew:
                have, want = have + (held,), want + (True,)
            report.fail("typing", subjects, str(have), str(want))

    for (f, i, p), g in m.pre.items():
        dom, cod = typed[f]
        check(("pre", f, str(i), p), g, (len(dom), dom[:i - 1] + typed[p][0] + dom[i:], cod), f)
    for (q, f), g in m.post.items():
        dom, _ = typed[f]
        check(("post", q, f), g, (len(dom), dom, typed[q][1]), f)
    for (g, i, f), h in m.sub.items():
        gdom, gcod = typed[g]
        fdom = typed[f][0]
        dom = gdom[:i - 1] + fdom + gdom[i:]
        check(("sub", g, str(i), f), h, (len(dom), dom, gcod))
    n = len(m.pre) + len(m.post) + len(m.sub)
    if n:
        report.count("typing", n)


def validate(m, keep=None, braid=None) -> ValidationReport:
    """Every law instance of m (of the braiding braid on m, if given),
    typing included, in one unsorted report without the base's families.
    keep(law), if given, is None (every instance of the row) or a predicate
    of the row's variables in order."""
    report = ValidationReport((braid or m).name)
    tables = Tables(m, braid)
    if hasattr(m, "pre"):
        typing(m, tables, report)
    for law in LAWS[type(braid or m).__name__]:
        n = compiled(law)(tables, report.fail, keep and keep(law))
        if n:
            report.count(law.family, n)
    return report
