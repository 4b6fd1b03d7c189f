"""Time- and energy-optimal control bounds for 1:2 nonlinear quantum systems.

Modules:

* :mod:`qsl12.ode` -- adaptive/fixed Runge-Kutta integration and event location;
* :mod:`qsl12.bloch2` -- two-level 1:2 dynamics and closed-form optima;
* :mod:`qsl12.lambda3` -- three-level Raman dynamics, costates, control laws;
* :mod:`qsl12.shooting` -- indirect solver: shots, landscape, refinement;
* :mod:`qsl12.isomorphism` -- two-level counterpart of the three-level flow;
* :mod:`qsl12.cli` -- the ``qsl`` command-line front end.
"""

__version__ = "0.1.0"

from . import bloch2, isomorphism, lambda3, ode, shooting  # noqa: E402,F401
