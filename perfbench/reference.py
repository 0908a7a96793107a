"""Sessions for the CLI workloads and the answers they must give.

Every expected ideal is written as the reduced Groebner basis the CLI
prints (degrevlex, `--json`), so the check at run time is a comparison of
generator sets and never asks the engine.  Where the acceptance criteria
state the ideal in another generating set, that form is kept in
`HAND_WRITTEN`; `selftest.py` proves with the engine that both forms give the
same ideals.  The exponent ladder and the circuit vectors are closed forms.
Each hand-written list is matched one-to-one into the expected components.
"""


def comp(generators, **fields):
    return dict(generators=generators, **fields)


PRIMARY_CERTS = {"intersection_verified": True, "primary_certified": True}

# criterion 2: six variables over QQ(zeta 12), 17 primary components
SHOWCASE = (
    "ring QQ(zeta 12)[a,b,c,d,e,f];\n"
    "ideal I = b*d^2-a*f^2, b*c*e-a*c*f, b*c*d-a*c*e, b^2*e-a*b*f, b^2*c, "
    "a*e^2-b*f^2, a*d^2-b*e^2, a*c*d-b*c*f, a*b*e-a^2*f, a*b*c, a*b^2-b^3, "
    "a^2*e-b^2*f, a^2*c, b^4, a^2*b-b^3, a^3-b^3, c^3*e-c^3*f, c^4, "
    "b^3*d-b^3*f, a*c^3-b*c^3, c*d^4-c*e^2*f^2;\n"
    "primary I;\n"
)
SHOWCASE_COMPONENTS = [
    ["c", "b", "a"],
    ["e - z3*f", "d + (z3 + 1)*f", "a - z3*b", "c^3", "b^2*c", "b^3"],
    ["e + (z3 + 1)*f", "d + z3*f", "a + (z3 + 1)*b", "b*c", "c^3", "b^3"],
    ["e - z3*f", "d + (-z3 - 1)*f", "a - z3*b", "b*c", "c^3", "b^3"],
    ["e + (z3 + 1)*f", "d - z3*f", "a + (z3 + 1)*b", "c^3", "b^2*c", "b^3"],
    ["e - f", "d + z4*f", "b", "a", "c^4"],
    ["e - f", "d - z4*f", "b", "a", "c^4"],
    ["e - z6*f", "d + (z6 - 1)*f", "a + z6*b", "b*c", "b^2", "c^3"],
    ["e + (z6 - 1)*f", "d + z6*f", "a + (-z6 + 1)*b", "b*c", "b^2", "c^3"],
    ["e - z6*f", "d + (-z6 + 1)*f", "a + z6*b", "b*c", "b^2", "c^3"],
    ["e + (z6 - 1)*f", "d - z6*f", "a + (-z6 + 1)*b", "b*c", "b^2", "c^3"],
    ["e + f", "d + f", "a - b", "b*c", "b^2", "c^3"],
    ["e - f", "d + f", "a - b", "b*c", "b^3", "c^4"],
    ["e + f", "d - f", "a - b", "b*c", "b^2", "c^3"],
    ["e - f", "d - f", "a - b", "b^2*c", "c^4", "b^4"],
    ["b", "a", "d^2 + e*f", "c^3"],
    ["b", "a", "d^2 - e*f", "c^3"],
]

CURVE = "c^5-b^2*d^3, a^5*d^2-b^7, b^5-a^3*c^2, a^2*d^5-c^7"
# toric prime of the degree-7 curve (s^7, s^5 t^2, s^2 t^5, t^7)
CURVE_PRIME = ["b*c - a*d", "c^5 - b^2*d^3", "a*c^4 - b^3*d^2",
               "a^2*c^3 - b^4*d", "b^5 - a^3*c^2"]
CURVE_EMBEDDED = [
    "c^5 - b^2*d^3", "b^5 - a^3*c^2", "d^7", "b^2*c^2*d^3 - a^2*d^5",
    "a^3*b^2*c^2 - a^5*d^2", "a^7", "a^2*c^2*d^5", "a^5*b^2*d^2", "b^4*d^6",
    "a^3*c^4*d^3 - a^2*b^3*d^5", "a^5*c^3*d^2 - a^3*b^4*d^3", "a^6*c^4",
    "a^2*b^3*c*d^5 - a^3*b^2*d^6", "a^3*b^2*c*d^6",
    "a^3*b^4*c*d^4 - a^4*b^3*d^5", "a^6*b*c^2*d^3", "a^4*b^4*c*d^3",
]
# Cramer minors of A = [[7,5,2,0],[0,2,5,7]] on each 3-subset of columns
CURVE_CIRCUITS = [(3, -5, 2, 0), (5, -7, 0, 2), (2, 0, -7, 5), (0, 2, -5, 3)]


def ladder_radical(k):
    """x^k - y, y^3 - x*z is already radical (and a reduced basis)."""
    return [f"x^{k} - y", "y^3 - x*z"]


def ladder_primes(k):
    """(x, y) and the curve (t, t^k, t^(3k-1)), in reduced form."""
    return [["y", "x"], [f"x^{k} - y", f"x^{k - 1}*y^2 - z", "y^3 - x*z"]]


LADDER = (10, 20, 30, 40, 50)


def ladder_session(k, cmd):
    return f"ring QQ[x,y,z];\nideal I = x^{k}-y, y^3-z*x;\n{cmd} I;\n"


def ladder_expected(k, cmd):
    if cmd == "radical":
        return [("radical", {"components": [comp(ladder_radical(k))]})]
    return [("minprimes", {"components": [comp(g) for g in ladder_primes(k)]})]


# name -> (session text, [(command, expectation)])
SESSIONS = {
    "showcase_primary": (SHOWCASE, [("primary", {
        "components": [comp(g) for g in SHOWCASE_COMPONENTS],
        "certificates": PRIMARY_CERTS,
    })]),
    # criterion 1: the embedded component is not unique; its prime is
    "cubic_pair_primary": (
        "ring QQ[x,y];\nideal I = x^3-y^3, x^4*y^5-x^5*y^4;\nprimary I;\n",
        [("primary", {
            "components": [
                comp(["x - y"], embedded=False),
                comp(None, associated_prime=["y", "x"], embedded=True),
            ],
            "certificates": PRIMARY_CERTS,
        })],
    ),
    "coupled_differences_minprimes": (
        "ring QQ[a,b,x1,x2,x3,x4];\n"
        "ideal I = a*x1-a*x3, a*x2-a*x4, b*x1-b*x4, b*x2-b*x3;\nminprimes I;\n",
        [("minprimes", {"components": [
            comp(["b", "a"]),
            comp(["x2 - x3", "x1 - x4", "a"]),
            comp(["x2 - x4", "x1 - x3", "b"]),
            comp(["x3 - x4", "x2 - x4", "x1 - x4"]),
        ]})],
    ),
    "permanental_2x3_minprimes": (
        "ring QQ[x11,x12,x13,x21,x22,x23];\n"
        "ideal P = x11*x22+x12*x21, x11*x23+x13*x21, x12*x23+x13*x22;\n"
        "minprimes P;\n",
        [("minprimes", {"components": [
            comp(["x13", "x12", "x11"]),
            comp(["x23", "x22", "x21"]),
            comp(["x23", "x13", "x12*x21 + x11*x22"]),
            comp(["x22", "x12", "x13*x21 + x11*x23"]),
            comp(["x21", "x11", "x13*x22 + x12*x23"]),
        ]})],
    ),
    # criterion 6: x_i = y x_{i+1} forces x = 0 or y^3 = 1
    "rotation_primary": (
        "ring QQ[x1,x2,x3,y];\nideal I = x1-y*x2, x2-y*x3, x3-y*x1;\nprimary I;\n",
        [("primary", {
            "components": [
                comp(["x3", "x2", "x1"]),
                comp(["y - 1", "x2 - x3", "x1 - x3"]),
                comp(["y - z3", "x2 - z3*x3", "x1 + (z3 + 1)*x3"]),
                comp(["y + (z3 + 1)", "x2 + (z3 + 1)*x3", "x1 - z3*x3"]),
            ],
            "certificates": PRIMARY_CERTS,
        })],
    ),
    # criterion 8: the six sixth roots of unity
    "roots_of_unity_primary": (
        "ring QQ(zeta 6)[x];\nideal I = x^6-1;\nprimary I;\n",
        [("primary", {
            "components": [comp([g], embedded=False) for g in (
                "x - 1", "x + 1", "x - z6", "x + (z6 - 1)", "x - z3", "x + (z3 + 1)")],
            "certificates": PRIMARY_CERTS,
        })],
    ),
    # criterion 8: x^2 - 1 = (x + 1)^2 over F_2, multiplicity 2
    "f2_square_primary": (
        "ring GF(2)[x];\nideal I = x^2-1;\nradical I;\nprimary I;\n",
        [
            ("radical", {"components": [comp(["x + 1"])]}),
            ("primary", {
                "components": [comp(["x^2 + 1"], associated_prime=["x + 1"],
                                    multiplicity=2)],
                "certificates": PRIMARY_CERTS,
            }),
        ],
    ),
    # y (x^2 - t y^2) = y (x + s y)^2 with s = t^2 + t, s^2 = t in GF(8);
    # char p takes the Frobenius-escalation path
    "gf8_frobenius_primary": (
        "ring GF(2^3; t^3+t+1)[x,y];\nideal I = x^2*y-t*y^3;\nprimary I;\n",
        [("primary", {
            "components": [
                comp(["y"], associated_prime=["y"]),
                comp(["x^2 + t*y^2"], associated_prime=["x + (t^2 + t)*y"],
                     multiplicity=2),
            ],
            "certificates": PRIMARY_CERTS,
        })],
    ),
    # criterion 3
    "curve_radical": (
        f"ring QQ[a,b,c,d];\nideal I = {CURVE};\nradical I;\n",
        [("radical", {"components": [comp(CURVE_PRIME)]})],
    ),
    "curve_cellular": (
        f"ring QQ[a,b,c,d];\nideal I = {CURVE};\ncellular I;\n",
        [("cellular", {
            "components": [
                comp(CURVE_PRIME, cell=["a", "b", "c", "d"]),
                comp(["d^4", "c^2*d^2", "b^2*d^2", "c^4", "b^2*c^2 - a^2*d^2",
                      "b^5 - a^3*c^2"], cell=["a"]),
                comp(["b^2*c^2 - a^2*d^2", "a^2*c^2", "b^4", "a^2*b^2", "a^4",
                      "c^5 - b^2*d^3"], cell=["d"]),
                comp(CURVE_EMBEDDED, cell=[]),
            ],
            "certificates": {"intersection_verified": True},
        })],
    ),
    "curve_circuits": (
        f"ring QQ[a,b,c,d];\nideal I = {CURVE};\ncircuits I;\n",
        [("circuits", {"circuits": CURVE_CIRCUITS})],
    ),
    # criterion 7
    "nested_powers_isprimary": (
        "ring QQ[x0,x1,x2,x3];\nideal K = x1^2, x1*x3-x2^2, x2*x3-x0^2;\nisprimary K;\n",
        [("isprimary", {
            "components": [comp(["x2", "x1", "x0"], role="radical")],
            "certificates": {"primary": True},
        })],
    ),
}

for _k in LADDER:
    for _cmd in ("radical", "minprimes"):
        SESSIONS[f"ladder_{_k}_{_cmd}"] = (ladder_session(_k, _cmd), ladder_expected(_k, _cmd))

# Generating sets as the acceptance criteria state them (reduced forms above).
HAND_WRITTEN = {
    "showcase_primary": [
        "a, b, c", "a, b, c^3, d^2-e*f", "a, b, c^3, d^2+e*f",
        "a, b, c^4, e-f, d-z12^3*f", "a, b, c^4, e-f, d+z12^3*f",
        "a-b, b^4, c^4, b^2*c, d-f, e-f", "a-b, b^2, c^3, b*c, d+f, e+f",
        "a-b, b^3, c^4, b*c, d+f, e-f", "a-b, b^2, c^3, b*c, d-f, e+f",
        "a-z12^4*b, b^2, c^3, b*c, d+z12^2*f, e+z12^4*f",
        "a-z12^4*b, b^3, c^3, b*c, d-z12^2*f, e-z12^4*f",
        "a-z12^4*b, b^3, c^3, b^2*c, d+z12^2*f, e-z12^4*f",
        "a-z12^4*b, b^2, c^3, b*c, d-z12^2*f, e+z12^4*f",
        "a+z12^2*b, b^2, c^3, b*c, d+z12^4*f, e-z12^2*f",
        "a+z12^2*b, b^3, c^3, b^2*c, d-z12^4*f, e+z12^2*f",
        "a+z12^2*b, b^3, c^3, b*c, d+z12^4*f, e+z12^2*f",
        "a+z12^2*b, b^2, c^3, b*c, d-z12^4*f, e-z12^2*f",
    ],
    "coupled_differences_minprimes": [
        "a, b", "a, x1-x4, x2-x3", "b, x1-x3, x2-x4", "x2-x3, x3-x4, x1-x4",
    ],
    "permanental_2x3_minprimes": [
        "x11, x12, x13", "x21, x22, x23",
        "x11*x22+x12*x21, x13, x23", "x11*x23+x13*x21, x12, x22",
        "x12*x23+x13*x22, x11, x21",
    ],
    "rotation_primary": [
        "x1, x2, x3", "y-1, x2-x3, x1-x3",
        "y-z3, x2-z3*x3, x1-z3^2*x3", "y-z3^2, x2-z3^2*x3, x1-z3*x3",
    ],
    "roots_of_unity_primary": [f"x-z6^{j}" for j in range(6)],
    # the fourth component, the toric prime, is checked against the curve
    "curve_cellular": [
        "b^2*c^2-a^2*d^2, b^5-a^3*c^2, b^2*d^2, c^4, c^2*d^2, d^4",
        "b^2*c^2-a^2*d^2, c^5-b^2*d^3, a^2*c^2, b^4, a^2*b^2, a^4",
        CURVE + ", a^7, b^9, c^9, d^7",
    ],
}
