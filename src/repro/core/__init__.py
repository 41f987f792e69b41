"""The integrated D.A.V.I.D.E. system: configuration and the Fig.-4 pipeline."""

from .._lazy import lazy

__getattr__, __dir__, __all__ = lazy(__name__, {
    ".config": ("DavideConfig",),
    ".system": ("CampaignReport", "DavideSystem"),
})
