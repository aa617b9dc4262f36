"""Per-cost derivatives of a market's power laws, for the tests' reference oracles.

The solver forms its derivatives as elasticities (``r f'`` and ``r² f''``);
the reference oracles in ``test_optimizer.py`` are built on these plain
first and second cost derivatives instead, and ``test_demand.py`` checks
them against ``demand_sensitivity`` and central differences.
"""


def law_derivatives(kernel, law, costs):
    """First and second r-derivatives of a ``NetUtilityKernel``'s ``"demand"``
    (``k r**e``), ``"bill"`` (``A r**q``) or ``"surplus"`` (net utility) at
    costs of shape ``(n,)``."""
    if law == "surplus":  # by the envelope theorem its slope is -A r**(q-1) for every type
        a, p = -kernel.A, kernel.q - 1.0
        return a * costs**p, a * p * costs ** (p - 1.0)
    a, p = (kernel.k, kernel.e) if law == "demand" else (kernel.A, kernel.q)
    return a * p * costs ** (p - 1.0), a * p * (p - 1.0) * costs ** (p - 2.0)
