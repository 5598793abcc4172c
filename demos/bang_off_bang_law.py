"""The pointwise input law and its brute-force cross-check.

In the normal case, staying at zero earns a unit bonus in the
Hamiltonian, so the input saturates only where the switching function
clears a threshold: that is the bang-OFF-bang mechanism that makes
optimal controls sparse.

Run: python demos/bang_off_bang_law.py
"""

import numpy as np

from handsoff import AdjointParams, argmax_hamiltonian_bruteforce, candidates_at, switching_function
from handsoff.problems import example_2

prob = example_2()

print("switching function for p_hat = (1, 0):  s(t) = 5 - t\n")
ap = AdjointParams(1, np.array([1.0, 0.0]))
print(" t    s(t)   candidates (eta = 1)")
for t in (0.0, 2.0, 3.9999, 4.0, 4.5, 5.0):
    s = switching_function(prob, ap, t)[0]
    values = [float(v[0]) for v in candidates_at(prob, ap, t).vectors()]
    print(f"{t:4.2f}  {s:5.2f}   {values}")
print("\nAbove the threshold (s > 1) the input saturates; below it the zero")
print("bonus wins and the input is exactly 0. At s = 1 both tie.")

print("\nbrute-force argmax over a 10001-point input grid agrees:")
rng = np.random.default_rng(3)
for _ in range(5):
    p_hat = rng.uniform(-2.0, 2.0, 2)
    eta = int(rng.integers(0, 2))
    t = float(rng.uniform(0.0, 5.0))
    ap = AdjointParams(eta, p_hat)
    analytic = [float(v[0]) for v in candidates_at(prob, ap, t).vectors()]
    brute = [float(v[0]) for v in argmax_hamiltonian_bruteforce(prob, ap, np.zeros(2), t, 10001)]
    ok = all(min(abs(a - b) for b in brute) < 1e-9 for a in analytic)
    print(f"  eta={eta} p_hat=({p_hat[0]:+.2f},{p_hat[1]:+.2f}) t={t:.2f}: "
          f"analytic {analytic} in grid argmax -> {ok}")
