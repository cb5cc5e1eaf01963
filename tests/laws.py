"""The laws of a short (skew) multicategory, of a category, of a skew
monoidal, braided and skew closed category, of a short braiding and of the
maps between them, written from the papers as data, and one evaluator.

A structure is read through its dataclass fields only: the base's
`objects`, `homs`, `comp` and `ids`, the multimap tables (`maps`, or
`tight` and `loose`), `j`, `pre`, `post` and `sub`, the tensor's
`tensor_obj`, `tensor_mor`, `unit`, `alpha`, `lam` and `rho`, a braiding's
`s` and `s_inv`, a short braiding's `b32`, `b42` and `b43`, and the closed
structure's `hom_obj`, `hom_mor`, `unit`, `iu`, `ju` and `ell`. A map (a
functor, a lax monoidal or skew closed functor, a morphism of short (skew)
multicategories) is read through its ends, each as a structure, and its
own fields: `obj_map` and `mor_map`, `f0`, `f2`, `fh`, and `maps` or
`tight_maps` and `loose_maps`. Nothing here reads an index, a lookup dict,
an accessor or a check kernel of the package, so the validators are
checked against the definitions and not against their own history.

Every family except the typing of a multicategory is a list of `Law` rows.
A row names its family, the literal head of its subjects, its variables
with their ranges, the subjects after the head, and its two sides as lookup
chains over the raw tables. The routing is the paper's unary one: a base
morphism composes in the base, and substituting one, or into one, is a pre
or post action. An instance fails when its sides differ or its left side is
undefined, and it is printed with the validator's subjects and sides. The
skew monoidal rows follow Szlachanyi, "Skew-monoidal categories and
bialgebroids" (Adv. Math. 2012), the skew closed ones Street, "Skew-closed
categories" (JPAA 2013), and the maps preserve those laws as in Bourke and
Lack, "Skew monoidal categories and skew multicategories" (J. Algebra
2018).

Ranges (a type is (flavour, arity): "m" for every map of a plain
structure, "t" tight and "l" loose in a skew one); a map's ranges are
those of its source:
    ("maps", ty)          the maps of type ty that are not base morphisms
    ("maps", ty, x)       those of them with codomain x
    ("listed", ty)        every id the table of ty lists, base ones too
    ("keys", ty)          the (domain, codomain) keys of the table of ty,
                          bound to a pair of variables
    ("every",)            every map that is not a base morphism, once
    ("slots", f)          1 .. arity of f; ("slots", f, "<" or ">", i)
                          only those below or above slot i
    ("into", x), ("out", x)   the base morphisms into or out of object x
    ("morphisms",)        every base morphism
    ("objects",)          every object of the base
    ("=", a, b)           no variable: keeps the instances where a == b
Terms: a variable, an int, ("dom", f, i) the i-th input of f,
("domain", f) all of them, ("cod", f), ("arity", f), ("id", x),
("comp", q, p) q after p, ("post", q, f) q o f, ("pre", f, i, p) f o_i p,
("sub", g, i, f) g o_i f, ("j", f), ("+", a, b, ...) a sum of slots,
("unit",), (name, key, ...) the entry of the structure map name at the key
(and (name,) a map's f0), ("span", f) the printed (domain, codomain) of a
base morphism, ("tuple", a, ...), ("str", t) printed, ("at", d, i) the
i-th entry of a domain, ("joined", d) a domain printed as a subject,
("flavoured", f, x) whether a table of flavour x lists f, ("set", ty, d, c)
the maps of a type, ("images", name, S) the sorted images of the set S
under the structure map name, ("image", f) the image of a multimap under a
morphism and ("image", f, x) its image as a map of flavour x. A map's terms
read its source; ("tgt", t) reads t in its target, where the map's own
fields still take source arguments.
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
b32, b42, b43 = map(_field, ("b32", "b42", "b43"))
one, I = _field("id"), ("unit",)
STRUCTURE_FIELDS = ("tensor_obj", "tensor_mor", "unit", "alpha", "lam", "rho", "s", "s_inv",
                    "hom_obj", "hom_mor", "iu", "ju", "ell", "b32", "b42", "b43")


def printed(*ts):
    """The tuple of the terms ts, printed."""
    return ("str", ("tuple", *ts))


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
        ("span", after("g", "f")), printed(dom("f"), cod("g"))),
    Law("assoc", (), F + (("g", ("out", cod("f"))), ("h", ("out", cod("g")))),
        ("h", "g", "f"), after("h", after("g", "f")), after(after("h", "g"), "f")),
)

# a (left) skew monoidal category, Szlachanyi's alpha: (ab)x -> a(bx),
# lambda: ia -> a and rho: a -> ai, with his five axioms
SKEW_MONOIDAL_LAWS = (
    Law("tensor-typing", (), FG, ("f", "g"),
        ("span", tm("f", "g")), printed(T(dom("f"), dom("g")), T(cod("f"), cod("g")))),
    Law("tensor-comp", (), FG + F2G2, ("f2", "f", "g2", "g"),
        tm(after("f2", "f"), after("g2", "g")), after(tm("f2", "g2"), tm("f", "g"))),
    Law("tensor-id", (), AB, ("a", "b"), tm(one("a"), one("b")), one(T("a", "b"))),
    Law("alpha-typing", (), ABX, ("a", "b", "x"),
        ("span", alpha("a", "b", "x")), printed(T(T("a", "b"), "x"), T("a", T("b", "x")))),
    Law("lambda-typing", (), A, ("a",), ("span", lam("a")), printed(T(I, "a"), "a")),
    Law("rho-typing", (), A, ("a",), ("span", rho("a")), printed("a", T("a", I))),
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
        ("span", s("x", "a", "b")), printed(T(T("x", "a"), "b"), T(T("x", "b"), "a"))),
    Law("s-inverse", (), XAB, ("x", "a", "b"),
        printed(after(s_inv("x", "a", "b"), s("x", "a", "b")),
         after(s("x", "a", "b"), s_inv("x", "a", "b"))),
        printed(one(T(T("x", "a"), "b")), one(T(T("x", "b"), "a")))),
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
        ("span", hm("f", "g")), printed(H(cod("f"), dom("g")), H(dom("f"), cod("g")))),
    Law("hom-comp", (), FG + F2G2, ("f2", "f", "g2", "g"),
        hm(after("f2", "f"), after("g2", "g")), after(hm("f", "g2"), hm("f2", "g"))),
    Law("hom-id", (), AB, ("a", "b"), hm(one("a"), one("b")), one(H("a", "b"))),
    Law("I-typing", (), A, ("a",), ("span", iu("a")), printed(H(I, "a"), "a")),
    Law("J-typing", (), A, ("a",), ("span", ju("a")), printed(I, H("a", "a"))),
    Law("L-typing", (), ABX, ("a", "b", "x"),
        ("span", ell("a", "b", "x")), printed(H("b", "x"), H(H("a", "b"), H("a", "x")))),
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


# a short braiding: b32 swaps slots 2 and 3 of the tight ternary maps, b42
# and b43 slots 2, 3 and 3, 4 of the tight quaternary ones; each swap is a
# bijection onto the maps of the swapped type, natural in every slot (the
# swapped slots exchanged) and in the codomain, and the swaps satisfy
# Yang-Baxter and commute with substituting binary and ternary maps
def _swap_laws(tag: str, arity: int, slot: int) -> tuple:
    def swapped(entry):
        d = [entry(i) for i in range(1, arity + 1)]
        d[slot - 1], d[slot] = d[slot], d[slot - 1]
        return ("tuple", *d)

    ty, swap = ("t", arity), _field(tag)
    f_ty = (("f", ("maps", ty)),)
    exchanged = {slot: slot + 1, slot + 1: slot}
    return (
        Law(f"{tag}-typing", (), f_ty, ("f",),
            printed(("arity", swap("f")), ("domain", swap("f")), cod(swap("f")),
                    ("flavoured", swap("f"), "t")),
            printed(arity, swapped(lambda i: ("dom", "f", i)), cod("f"), True)),
        Law(f"{tag}-bijective", (), ((("d", "c"), ("keys", ty)),), (("joined", "d"), "c"),
            ("str", ("images", tag, ("set", ty, "d", "c"))),
            ("str", ("sorted", ("set", ty, swapped(lambda i: ("at", "d", i)), "c")))),
        Law(f"{tag}-nat", ("post",), f_ty + (("q", ("out", cod("f"))),), ("q", "f"),
            swap(("post", "q", "f")), ("post", "q", swap("f"))),
        *(Law(f"{tag}-nat", ("pre",), f_ty + (("p", ("into", ("dom", "f", i))),), ("f", i, "p"),
              swap(("pre", "f", i, "p")), ("pre", swap("f"), exchanged.get(i, i), "p"))
          for i in range(1, arity + 1)),
    )


def _sub_law(family: str, outer: int, inner: int, i: int, lhs, rhs) -> Law:
    """A swap law of the tight map g of arity outer with the tight map f of
    arity inner substituted into its slot i."""
    return Law(family, (), (("g", ("maps", ("t", outer))),
                            ("f", ("maps", ("t", inner), ("dom", "g", i)))), ("g", "f"), lhs, rhs)


SHORT_BRAIDING_LAWS = (
    _swap_laws("b32", 3, 2) + _swap_laws("b42", 4, 2) + _swap_laws("b43", 4, 3)
    + (Law("braid-yang-baxter", (), (("h", ("maps", ("t", 4))),), ("h",),
           b42(b43(b42("h"))), b43(b42(b43("h")))),
       _sub_law("braid-3-in-2-slot1", 2, 3, 1, ("sub", "g", 1, b32("f")), b42(("sub", "g", 1, "f"))),
       _sub_law("braid-3-in-2-slot2", 2, 3, 2, ("sub", "g", 2, b32("f")), b43(("sub", "g", 2, "f"))),
       _sub_law("braid-2-in-3-slot1", 3, 2, 1, b43(("sub", "g", 1, "f")), ("sub", b32("g"), 1, "f")),
       _sub_law("braid-2-in-3-slot2", 3, 2, 2, b42(b43(("sub", "g", 2, "f"))),
                 ("sub", b32("g"), 3, "f")),
       _sub_law("braid-2-in-3-slot3", 3, 2, 3, b43(b42(("sub", "g", 3, "f"))),
                 ("sub", b32("g"), 2, "f"))))


# -- maps --------------------------------------------------------------------
# A map's variables range over its source and its terms read the source;
# tgt(t) reads t in the target. Fo and Fm are the functor on objects and on
# morphisms; f0: i' -> F i, f2(a, b): Fa Fb -> F(ab) and fh(a, b):
# F[a, b] -> [Fa, Fb] are the comparison maps, each a field of the map.
# These and the image of a multimap are the map's own terms.
MAP_TERMS = ("obj_map", "mor_map", "f0", "f2", "fh", "image")


def tgt(t):
    return ("tgt", t)


Fo, Fm, f2, fh = map(_field, ("obj_map", "mor_map", "f2", "fh"))
f0 = ("f0",)

FUNCTOR_LAWS = (
    Law("functor-span", (), F, ("f",), tgt(("span", Fm("f"))), printed(Fo(dom("f")), Fo(cod("f")))),
    Law("functor-id", (), A, ("a",), Fm(one("a")), tgt(one(Fo("a")))),
    Law("functor-comp", (), F + (("g", ("out", cod("f"))),), ("g", "f"),
        Fm(after("g", "f")), tgt(after(Fm("g"), Fm("f")))),
)

# a lax monoidal functor: f2 natural, and with f0 compatible with alpha,
# lambda and rho
LAX_FUNCTOR_LAWS = (
    Law("f0-typing", (), (), (f0,), tgt(("span", f0)), printed(tgt(I), Fo(I))),
    Law("f2-typing", (), AB, ("a", "b"),
        tgt(("span", f2("a", "b"))), printed(tgt(T(Fo("a"), Fo("b"))), Fo(T("a", "b")))),
    Law("f2-nat", (), FG, ("f", "g"),
        tgt(after(f2(cod("f"), cod("g")), tm(Fm("f"), Fm("g")))),
        tgt(after(Fm(tm("f", "g")), f2(dom("f"), dom("g"))))),
    Law("lax-assoc", (), ABX, ("a", "b", "x"),
        tgt(after(Fm(alpha("a", "b", "x")), f2(T("a", "b"), "x"), tm(f2("a", "b"), one(Fo("x"))))),
        tgt(after(f2("a", T("b", "x")), tm(one(Fo("a")), f2("b", "x")),
                  alpha(Fo("a"), Fo("b"), Fo("x"))))),
    Law("lax-left-unit", (), A, ("a",),
        tgt(after(Fm(lam("a")), f2(I, "a"), tm(f0, one(Fo("a"))))), tgt(lam(Fo("a")))),
    Law("lax-right-unit", (), A, ("a",),
        tgt(after(f2("a", I), tm(one(Fo("a")), f0), rho(Fo("a")))), Fm(rho("a"))),
)

# a lax functor between braided ends preserves the braiding
BRAIDED_FUNCTOR_LAWS = (
    Law("braided-functor", (), XAB, ("x", "a", "b"),
        tgt(after(f2(T("x", "b"), "a"), tm(f2("x", "b"), one(Fo("a"))), s(Fo("x"), Fo("a"), Fo("b")))),
        tgt(after(Fm(s("x", "a", "b")), f2(T("x", "a"), "b"), tm(f2("x", "a"), one(Fo("b")))))),
)

# a skew closed functor: fh natural, and with f0 compatible with I, J and L
SKEW_CLOSED_FUNCTOR_LAWS = (
    Law("f0-typing", (), (), (f0,), tgt(("span", f0)), printed(tgt(I), Fo(I))),
    Law("fh-typing", (), AB, ("a", "b"),
        tgt(("span", fh("a", "b"))), printed(Fo(H("a", "b")), tgt(H(Fo("a"), Fo("b"))))),
    Law("fh-nat", (), FG, ("f", "g"),
        tgt(after(fh(dom("f"), cod("g")), Fm(hm("f", "g")))),
        tgt(after(hm(Fm("f"), Fm("g")), fh(cod("f"), dom("g"))))),
    Law("closed-I", (), A, ("a",),
        tgt(after(iu(Fo("a")), hm(f0, one(Fo("a"))), fh(I, "a"))), Fm(iu("a"))),
    Law("closed-J", (), A, ("a",), tgt(after(fh("a", "a"), Fm(ju("a")), f0)), tgt(ju(Fo("a")))),
    Law("closed-L", (), ABX, ("a", "b", "x"),
        tgt(after(hm(fh("a", "b"), one(H(Fo("a"), Fo("x")))), ell(Fo("a"), Fo("b"), Fo("x")),
                  fh("b", "x"))),
        tgt(after(hm(one(Fo(H("a", "b"))), fh("a", "x")), fh(H("a", "b"), H("a", "x")),
                  Fm(ell("a", "b", "x"))))),
)


# a morphism of short (skew) multicategories: each image has the image
# type, a loose image is loose, and the images commute with the actions,
# the stored substitutions and j
def _image_typing(head: tuple, binders: tuple, f: str, n: int, image, flavour=None) -> Law:
    have = [tgt(t) for t in (("arity", image), ("domain", image), cod(image))]
    want = [n, ("tuple", *(Fo(("dom", f, i)) for i in range(1, n + 1))), Fo(cod(f))]
    if flavour:
        have.append(tgt(("flavoured", image, flavour)))
        want.append(True)
    return Law("morphism-typing", head, binders, (f,), printed(*have), printed(*want))


def _morphism_laws(cases: tuple) -> tuple:
    def image(t):
        return ("image", t)

    return (
        Law("morphism-nat", ("post",), (("f", ("every",)), ("q", ("out", cod("f")))), ("q", "f"),
            image(("post", "q", "f")), tgt(("post", image("q"), image("f")))),
        Law("morphism-nat", ("pre",), F_SLOT + (("p", ("into", ("dom", "f", "i"))),),
            ("f", "i", "p"),
            image(("pre", "f", "i", "p")), tgt(("pre", image("f"), "i", image("p")))),
        *(Law("morphism-sub", (), (("g", ("maps", outer)), ("i", ("slots", "g")),
                                   ("f", ("maps", inner, ("dom", "g", "i")))), ("g", "i", "f"),
              image(("sub", "g", "i", "f")), tgt(("sub", image("g"), "i", image("f"))))
          for outer, inner in cases),
    )


MULTI_MORPHISM_LAWS = (
    tuple(_image_typing((), (("f", ("maps", ("m", n))),), "f", n, ("image", "f"))
          for n in (0, 2, 3, 4))
    + _morphism_laws(PLAIN_CASES))
SKEW_MORPHISM_LAWS = (
    tuple(_image_typing((x + str(n),), (("f", ("maps", (x, n))),), "f", n, ("image", "f", x), x)
          for x, n in (("t", 2), ("t", 3), ("t", 4), ("l", 0), ("l", 1), ("l", 2)))
    # a base morphism listed loose is its own loose unary map, its image the functor's
    + (_image_typing(("l1",), (("p", ("morphisms",)), (None, ("=", ("flavoured", "p", "l"), True))),
                     "p", 1, Fm("p"), "l"),)
    + _morphism_laws(SKEW_CASES)
    + tuple(Law("morphism-j", (), ((v, r),), (v,), ("image", ("j", v), "l"), tgt(("j", ("image", v))))
            for v, r in (("p", ("morphisms",)), ("g", ("maps", B)))))

# a morphism between ends with short braidings preserves the three swaps
BRAIDED_TRANSPORT_LAWS = tuple(
    Law(f"preserve-{tag}", (), (("f", ("maps", ("t", n))),), ("f",),
        ("image", (tag, "f"), "t"), tgt((tag, ("image", "f", "t"))))
    for tag, n in (("b32", 3), ("b42", 4), ("b43", 4)))

# the rows of each kind of structure or map, by the name of its class (of
# its braiding, or of a map between braided ends)
LAWS = {"ShortMulticategory": PLAIN_LAWS, "ShortSkewMulticategory": SKEW_LAWS,
        "FinCategory": CATEGORY_LAWS, "SkewMonCategory": SKEW_MONOIDAL_LAWS,
        "Braiding": BRAIDING_LAWS, "SkewClosedCategory": SKEW_CLOSED_LAWS,
        "ShortBraiding": SHORT_BRAIDING_LAWS, "FinFunctor": FUNCTOR_LAWS,
        "LaxMonFunctor": LAX_FUNCTOR_LAWS, "LaxMonFunctor.braided": BRAIDED_FUNCTOR_LAWS,
        "SkewClosedFunctor": SKEW_CLOSED_FUNCTOR_LAWS, "MultiMorphism": MULTI_MORPHISM_LAWS,
        "SkewMultiMorphism": SKEW_MORPHISM_LAWS,
        "SkewMultiMorphism.braided": BRAIDED_TRANSPORT_LAWS}


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
    (with its braiding, if given), from its fields. A map's Tables are those
    of its source (with the source's braiding) and hold its target's as
    `target` and the map's own fields; its braid is the pair of the two
    ends' braidings."""

    def __init__(self, m, braid=None):
        if hasattr(m, "source"):
            src_braid, tgt_braid = braid or (None, None)
            self.target = Tables(m.target, tgt_braid)
            fun = getattr(m, "functor", m)
            self.obj_map, self.mor_map = fun.obj_map, fun.mor_map
            for name in ("f0", "f2", "fh"):
                if hasattr(m, name):
                    setattr(self, name, getattr(m, name))
            self.images = {**{("m", n): t for n, t in getattr(m, "maps", {}).items()},
                           **{("t", n): t for n, t in getattr(m, "tight_maps", {}).items()},
                           **{("l", n): t for n, t in getattr(m, "loose_maps", {}).items()}}
            m, braid = m.source, src_braid
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
        self.listed, self.maps, self.with_cod, self.raw = {}, {}, {}, {}
        if hasattr(m, "pre"):  # a short (skew) multicategory
            self.pre_table, self.post_table, self.sub_table = m.pre, m.post, m.sub
            self.j_table = m.j if is_skew(m) else {}
            self.raw = raw_tables(m)
            for ty, table in self.raw.items():
                for (ins, c), fs in table.items():
                    for f in fs:
                        self.typed.setdefault(f, (tuple(ins), c))
                        self.flavours.setdefault(f, set()).add(ty[0])
                        self.listed.setdefault(ty, []).append(f)
                        if f not in self.morphisms:
                            self.maps.setdefault(ty, []).append(f)
                            self.with_cod.setdefault((ty, c), []).append(f)
        self.every = list(dict.fromkeys(f for fs in self.maps.values() for f in fs))

    def image(self, f, flavour=None):
        """The image of the source map f under a morphism: a base
        morphism's under the functor, unless its loose image is asked for;
        any other map's in the table of its arity and of the flavour asked
        for, or else of its own flavour, tight first."""
        if f not in self.typed:
            return None
        if f in self.morphisms and flavour != "l":
            return self.mor_map.get(f)
        if flavour is None:
            flavour = "t" if "t" in self.flavours[f] else min(self.flavours[f])
        return self.images.get((flavour, len(self.typed[f][0])), {}).get(f)

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
          "out", "listed", "maps", "with_cod", "objects", "spans", "flavours", "raw"
          ) + STRUCTURE_FIELDS + MAP_TERMS

# {p} is the prefix of the end a term reads: "" the structure or a map's
# source, "tgt_" a map's target
_TERMS = {"dom": "_{p}typed[{0}][0][{1} - 1]", "domain": "_{p}typed[{0}][0]",
          "cod": "_{p}typed[{0}][1]", "arity": "len(_{p}typed[{0}][0])", "id": "_{p}ids.get({0})",
          "comp": "_{p}comp.get(({0}, {1}))", "post": "_{p}post({0}, {1})",
          "pre": "_{p}pre({0}, {1}, {2})", "sub": "_{p}sub({0}, {1}, {2})", "j": "_{p}j({0})",
          "span": "str(_{p}spans.get({0}))", "str": "str({0})", "sorted": "sorted({0})",
          "at": "{0}[{1} - 1]", "joined": "','.join({0})"}


def _term(t, p="") -> str:
    if not isinstance(t, tuple):
        return str(t)  # a variable or an int
    op, *args = t
    if op == "tgt":
        return _term(args[0], "tgt_")
    if op in MAP_TERMS:
        p = ""  # the map's own fields take source arguments
    if op == "image":
        return f"_image({', '.join([_term(args[0])] + [repr(x) for x in args[1:]])})"
    if op == "flavoured":
        return f"({args[1]!r} in _{p}flavours[{_term(args[0], p)}])"
    if op == "set":
        ty, d, c = args
        return f"_{p}raw.get({ty!r}, {{}}).get(({_term(d, p)}, {_term(c, p)}), ())"
    if op == "images":
        name, of = args
        return f"sorted({{_{p}{name}.get(_x) for _x in {_term(of, p)}}})"
    terms = [_term(x, p) for x in args]
    if op == "+":
        return "(" + " + ".join(terms) + ")"
    if op == "tuple":
        return "(" + "".join(x + ", " for x in terms) + ")"
    if op in _TERMS:
        return _TERMS[op].format(*terms, p=p)
    if not terms:  # a structure's or a map's one value
        return f"_{p}{op}"
    key = ", ".join(terms)  # a structure map, keyed by one id or a tuple
    return f"_{p}{op}.get({key if len(terms) == 1 else '(' + key + ')'})"


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
    if kind == "keys":
        return f"_raw.get({args[0]!r}, ())"
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
    names = [v for var, _ in law.binders if var for v in ((var,) if isinstance(var, str) else var)]
    lines, indent = [], "    "
    for var, r in law.binders:
        target = ", ".join(var) if isinstance(var, tuple) else var or "_"
        lines.append(f"{indent}for {target} in {_range(r)}:")
        indent += "    "
    subjects = "".join(f"str({_term(t)}), " for t in law.subjects)
    lines += [f"{indent}if keep is None or keep({', '.join(names)}):",
              f"{indent}    n += 1",
              f"{indent}    lhs, rhs = {_term(law.lhs)}, {_term(law.rhs)}",
              f"{indent}    if lhs != rhs or lhs is None:",
              f"{indent}        fail({law.family!r}, {law.head!r} + ({subjects}), lhs, rhs)",
              "    return n"]
    text = "\n".join(lines)
    reads = [(f"_{p}{a}", f"tables.{end}{a}") for a in _READS
             for p, end in (("", ""), ("tgt_", "target.")) if re.search(rf"\b_{p}{a}\b", text)]
    return "\n".join(["def check(tables, fail, keep):",
                      f"    {''.join(name + ', ' for name, _ in reads)}n = "
                      f"{''.join(value + ', ' for _, value in reads)}0"] + lines)


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
    """Every law instance of m (of the braiding braid on m, or, braid a pair,
    of the map m between braided ends), a multicategory's typing included,
    in one unsorted report without the families of the base or of a map's
    functor. keep(law), if given, is None (every instance of the row) or a
    predicate of the row's variables in order."""
    if isinstance(braid, tuple):
        kind, name = type(m).__name__ + ".braided", m.name + ".braided"
    else:
        kind, name = type(braid or m).__name__, (braid or m).name
    report = ValidationReport(name)
    tables = Tables(m, braid)
    if braid is None and hasattr(m, "pre"):
        typing(m, tables, report)
    for law in LAWS[kind]:
        n = compiled(law)(tables, report.fail, keep and keep(law))
        if n:
            report.count(law.family, n)
    return report
