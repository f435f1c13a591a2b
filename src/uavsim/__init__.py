"""UAV-aided wireless link simulations.

Modules: ``channel`` (link models), ``mobility`` (trajectories), ``relay``
(relaying cycles), ``dissemination`` (D2D-enhanced dissemination),
``coverage`` (altitude-coverage optimization) and ``experiment`` (configs,
presets and runs) with the ``cli`` on top.  Import names from the modules,
as in ``from uavsim.channel import snr_anchor_db``: importing the package
loads none of them, and each command loads only its scenario's modules.
A kernel raises ``DomainError`` for an argument outside its domain.
"""

__version__ = "0.1.0"


class DomainError(ValueError):
    """A kernel argument outside the kernel's domain.  ``parameters`` names
    the kernel parameters at fault: the ``{parameter}`` fields of the message
    ``template``, each of which reads as its name, then any ``others``."""

    def __init__(self, template: str, *others: str):
        from string import Formatter  # loaded only once an error is raised
        self.template = template
        self.parameters = (*(name for _, name, _, _ in
                             Formatter().parse(template) if name), *others)
        super().__init__(self.render({}))

    def render(self, names: dict) -> str:
        """The message, each parameter called ``names.get(it, it)``."""
        return self.template.format_map(
            {name: names.get(name, name) for name in self.parameters})


def require(condition, template: str, *others: str) -> None:
    """Raise ``DomainError(template, *others)`` unless ``condition``, which
    says what a valid argument satisfies, so that nan fails it."""
    if not condition:
        raise DomainError(template, *others)
