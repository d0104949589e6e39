"""Real-time monitoring: online session tracking and live QoE diagnosis."""

from .monitor import Alarm, RealTimeMonitor, SubscriberHealth
from .tracker import OnlineSessionTracker

__all__ = [
    "OnlineSessionTracker",
    "RealTimeMonitor",
    "SubscriberHealth",
    "Alarm",
]
