"""Test doubles shared by the unit tests."""
from claimgraph.gateway import GenerationResponse, TokenUsage


class FakeGateway:
    """Plays back canned texts and keeps every ``(stage, prompt)`` it is sent.

    A reply that is an exception instance is raised instead, as a provider
    failure would be.
    """

    def __init__(self, replies):
        self.replies = list(replies)
        self.prompts = []

    def complete(self, prompt_text, stage):
        self.prompts.append((stage, prompt_text))
        if not self.replies:
            raise AssertionError("fake gateway ran out of replies")
        reply = self.replies.pop(0)
        if isinstance(reply, Exception):
            raise reply
        return GenerationResponse(reply, TokenUsage(1, 1))
