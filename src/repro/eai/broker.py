"""A minimal topic-based message broker (synchronous delivery)."""

from __future__ import annotations

import fnmatch
import itertools
from collections import deque
from dataclasses import dataclass
from typing import Callable

#: Messages `MessageBroker.log` keeps; older ones are dropped.
MESSAGE_LOG_LENGTH = 1024


@dataclass(frozen=True)
class Message:
    """One published message: a topic plus a payload dict."""

    topic: str
    payload: dict
    sequence: int


class MessageBroker:
    """Publish/subscribe hub for application integration events.

    Subscriptions match topics with `fnmatch` wildcards
    (`"employee.*"` receives `"employee.created"`). Delivery is synchronous
    and in subscription order; handler exceptions propagate to the
    publisher (the process engine treats them as step failures). The most
    recent traffic is kept in `log` for auditing and tests.
    """

    def __init__(self):
        self._subscriptions: list[tuple[str, Callable[[Message], None]]] = []
        self._sequence = itertools.count(1)
        #: The last `MESSAGE_LOG_LENGTH` messages, oldest first. Bounded, so
        #: `len()` saturates: count messages by `Message.sequence`, not by it.
        self.log: deque[Message] = deque(maxlen=MESSAGE_LOG_LENGTH)

    def subscribe(self, pattern: str, handler: Callable[[Message], None]) -> None:
        self._subscriptions.append((pattern, handler))

    def publish(self, topic: str, payload: dict) -> Message:
        message = Message(topic, dict(payload), next(self._sequence))
        self.log.append(message)
        for pattern, handler in self._subscriptions:
            if fnmatch.fnmatch(topic, pattern):
                handler(message)
        return message

    def messages_on(self, pattern: str) -> list[Message]:
        return [m for m in self.log if fnmatch.fnmatch(m.topic, pattern)]
