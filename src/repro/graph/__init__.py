"""Graph substrate: the spatio-temporal domain graph."""

from .domain_graph import DomainGraph

__all__ = ["DomainGraph"]
