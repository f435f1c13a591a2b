"""UAV-aided wireless link simulations.

Modules: ``channel`` (link models), ``mobility`` (trajectories), ``relay``
(relaying cycles), ``dissemination`` (D2D-enhanced dissemination),
``coverage`` (altitude-coverage optimization) and ``experiment`` (configs,
presets and runs) with the ``cli`` on top.  Import names from the modules,
as in ``from uavsim.channel import snr_anchor_db``: importing the package
loads none of them, and each command loads only its scenario's modules.
"""

__version__ = "0.1.0"
