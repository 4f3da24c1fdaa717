"""Model document shared by the workloads and the set-up probe.

beta = 2, the default quartic exchange kernel with unit integral, and a
single exponential atom: the model of the README's minimal config.
"""

MODEL = {"beta": 2.0, "J0_hat": 1.0, "lambda": 1.0,
         "measure": [{"weight": 1.0, "alpha": 1.0}]}
