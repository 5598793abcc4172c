"""Certifying a candidate control against the maximum principle.

A candidate consists of a control plus a multiplier pair: the terminal
costate p_hat and the cost multiplier eta (1 normal, 0 abnormal). The
checker verifies the adjoint equation, pointwise Hamiltonian
maximization, Hamiltonian constancy, nontriviality, and the endpoint.

Run: python demos/certificates.py
"""

import numpy as np

from handsoff import certify, recover_adjoint
from handsoff.problems import example_2, example_2_reference_control

prob = example_2()
control = example_2_reference_control()

print("candidate: off until 11/6, full thrust until 29/6, off again\n")

report = certify(prob, 1, np.array([0.0, 1.0]), control)
print("eta=1, p_hat=(0, 1):")
print(report.to_json())

print("\nWith this multiplier the switching value sits exactly on the")
print("threshold for all time, so both 'off' and 'full thrust' maximize the")
print("Hamiltonian pointwise (its value is constant 1). The certificate is")
print("normal and the dynamics are state-affine, so it is locally optimal.")

bad = certify(prob, 1, np.array([1.0, 0.0]), control)
print(f"\neta=1, p_hat=(1, 0): passed={bad.passed}, "
      f"hamiltonian shortfall={bad.hmax_violation:.3f}")

trivial = certify(prob, 0, np.zeros(2), control)
print(f"eta=0, p_hat=(0, 0): nontriviality={trivial.nontriviality} (rejected outright)")

recovered = recover_adjoint(prob, control)
print(f"\nrecover_adjoint found: eta={recovered.eta}, p_hat={recovered.p_hat}")
print("Multiplier recovery inverts the pointwise law: at each switch the")
print("switching value must sit on its threshold, which is linear in the")
print("terminal costate; the solution is kept if its candidate sets contain")
print("the control everywhere.")
