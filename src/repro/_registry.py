"""One name -> entry table behind every plugin registry.

Codecs (:mod:`repro.pipeline.registry`), platforms
(:mod:`repro.pipeline.platforms`), task kinds (:mod:`repro.pipeline.tasks`),
rate controllers (:mod:`repro.codec.rate_control`) and entropy backends
(:mod:`repro.codec.entropy`) each hold one :class:`Registry` with their
own entry record and error class, and their public ``register_*`` /
``unregister_*`` / ``available_*`` / lookup functions delegate to it.
So all five keep one contract:

* a name is a non-empty string;
* a taken name is refused unless ``overwrite=True``;
* removing a name that is not there is no error;
* names list sorted;
* an unknown name raises the registry's error, listing what is available.

Like :mod:`repro._lazy`, this module imports only the standard library.
"""

from __future__ import annotations

from typing import Any, Callable


class Registry:
    """A name -> entry table.  ``what`` names the plugin kind in error
    messages (``"codec"``, ``"task kind"``); ``error`` is the exception
    class every refusal raises.  ``builtins`` maps names to zero-argument
    factories that refill a missing built-in on every lookup, so a
    built-in that is unregistered (or lives in a module not yet
    imported) still resolves."""

    def __init__(
        self,
        what: str,
        error: type[Exception],
        builtins: dict[str, Callable[[], Any]] | None = None,
    ):
        self.what = what
        self.error = error
        self._builtins = dict(builtins or {})
        self._entries: dict[str, Any] = {}

    def _fill(self) -> None:
        for name, make in self._builtins.items():
            if name not in self._entries:
                entry = make()  # may register ``name`` itself on import
                self._entries.setdefault(name, entry)

    def add(self, name: str, entry: Any, *, overwrite: bool = False) -> Any:
        """Register ``entry`` under ``name`` and return it."""
        if not name or not isinstance(name, str):
            raise self.error(
                f"{self.what} name must be a non-empty string, got {name!r}"
            )
        if name in self._entries and not overwrite:
            old = self._entries[name]
            detail = getattr(old, "description", "") or repr(old)
            raise self.error(
                f"{self.what} {name!r} is already registered ({detail}); "
                "pass overwrite=True to replace it"
            )
        self._entries[name] = entry
        return entry

    def remove(self, name: str) -> None:
        self._entries.pop(name, None)

    def names(self) -> list[str]:
        self._fill()
        return sorted(self._entries)

    def get(self, name: str) -> Any:
        self._fill()
        try:
            return self._entries[name]
        except KeyError:
            raise self.error(
                f"unknown {self.what} {name!r}; available: "
                f"{', '.join(self.names())}"
            ) from None

    def check(self, names) -> None:
        """Refuse a grid naming anything unregistered, all unknown
        names in one error."""
        known = self.names()
        unknown = sorted({str(name) for name in names if name not in known})
        if unknown:
            raise self.error(
                f"unknown {self.what} name(s) in grid: "
                f"{', '.join(map(repr, unknown))}; available: {', '.join(known)}"
            )

    def config(self, name: str, config=None, **overrides):
        """The config an entry with a ``config_cls`` is built with.

        ``config`` is a ready ``config_cls`` instance, a dict (validated
        through ``config_cls.from_dict``) or ``None`` for defaults; the
        keyword overrides apply on top in all three cases.
        """
        config_cls = self.get(name).config_cls
        if config is None:
            # kwargs go through from_dict so bad names or types get the
            # same ConfigError as the dict path
            return config_cls.from_dict(overrides) if overrides else config_cls()
        if isinstance(config, dict):
            return config_cls.from_dict({**config, **overrides})
        if not isinstance(config, config_cls):
            raise self.error(
                f"{self.what} {name!r} expects a {config_cls.__name__}, "
                f"got {type(config).__name__}"
            )
        return config.replace(**overrides) if overrides else config
