"""One name -> entry table behind every plugin registry.

Codecs (:mod:`repro.pipeline.registry`), platforms
(:mod:`repro.pipeline.platforms`), task kinds (:mod:`repro.pipeline.tasks`),
rate controllers (:mod:`repro.codec.rate_control`) and entropy backends
(:mod:`repro.codec.entropy_registry`) each hold one :class:`Registry`
with their own entry record and error class, and their public
``register_*`` / ``unregister_*`` / ``available_*`` / lookup functions
delegate to it.  So all five keep one contract:

* a name is a non-empty string;
* a taken name is refused unless ``overwrite=True``;
* removing a name that is not there is no error;
* names list sorted;
* an unknown name raises the registry's error, listing what is available.

Like :mod:`repro._lazy`, this module imports only the standard library.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable


class Registry:
    """A name -> entry table.  ``what`` names the plugin kind in error
    messages (``"codec"``, ``"task kind"``); ``error`` is the exception
    class every refusal raises.

    ``builtins`` maps names to ``"module:attr"`` references, imported on
    the first :meth:`get` of their name: listing names, checking a name
    and refusing an unknown one never import them.  ``make(name,
    target)`` turns the imported attribute into the entry; without it
    the attribute is a zero-argument factory of the entry.  A built-in
    that is unregistered comes back on its next lookup.
    """

    def __init__(
        self,
        what: str,
        error: type[Exception],
        builtins: dict[str, str] | None = None,
        *,
        make: Callable[[str, Any], Any] | None = None,
    ):
        self.what = what
        self.error = error
        self._builtins = dict(builtins or {})
        self._make = make or (lambda name, factory: factory())
        self._entries: dict[str, Any] = {}

    def add(self, name: str, entry: Any, *, overwrite: bool = False) -> Any:
        """Register ``entry`` under ``name`` and return it."""
        if not name or not isinstance(name, str):
            raise self.error(
                f"{self.what} name must be a non-empty string, got {name!r}"
            )
        if name in self.names() and not overwrite:
            old = self.get(name)
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
        return sorted({*self._entries, *self._builtins})

    def get(self, name: str, *, load: bool = True) -> Any:
        """The entry under ``name``.  With ``load=False`` a built-in not
        imported yet reads ``None`` instead of being imported; an
        unknown name raises either way."""
        if name not in self._entries:
            if name not in self._builtins:
                raise self.error(
                    f"unknown {self.what} {name!r}; available: "
                    f"{', '.join(self.names())}"
                )
            if not load:
                return None
            module, _, attr = self._builtins[name].partition(":")
            entry = self._make(name, getattr(importlib.import_module(module), attr))
            self._entries.setdefault(name, entry)  # the import may register it
        return self._entries[name]

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
