"""Common-sense constraint evaluation against a knowledge provider.

Two providers are available: a static knowledge-base file (offline, the
source of truth for tests and reproducible runs) and a remote LLM service
queried with fixed prompt templates. Each distinct prompt is sent once per
run; where the model gives no answer, the static provider answers instead.
A provider also judges debates: the remote one asks the model to name a
candidate, and the static one abstains, leaving the verdict to the offline
strength rule.
"""

from __future__ import annotations

import json
import math
import os
import re
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, Sequence, TypeVar

from .geometry import Box7DoF
from .jsonl import ARRAY, brief, expect, number, parse_file
from .psl import ConstraintVector

if TYPE_CHECKING:
    from concurrent.futures import Future

__all__ = [
    "SizePrior",
    "SceneContext",
    "SizeConstraintConfig",
    "KnowledgeBase",
    "load_knowledge_base",
    "default_knowledge_base",
    "MissingSizePriorError",
    "ProviderError",
    "StaticKnowledgeProvider",
    "RemoteKnowledgeProvider",
    "LlmClient",
    "size_prompt",
    "scene_prompt",
    "judge_prompt",
    "parse_size_reply",
    "parse_yes_no",
    "size_fit",
    "size_constraint",
    "scene_constraint",
    "constraint_vector",
]

ENDPOINT_ENV = "GLRD_LLM_ENDPOINT"
API_KEY_ENV = "GLRD_LLM_KEY"
# the completion length every request asks for; replies need only a size
# triple or a yes/no and a class name
MAX_TOKENS = 64

T = TypeVar("T")


# Prompt templates sent verbatim to the language model.
def size_prompt(label: str) -> str:
    return (
        f"What is the common size of a {label}? "
        "Answer in the format of length*width*height."
    )


def scene_prompt(label: str, scene_type: str) -> str:
    return f"Is it normal to see a {label} in a {scene_type}?"


def judge_prompt(candidates: Sequence[str], scene_type: str, cases: Sequence[str]) -> str:
    """The judge's question; ``cases[i]`` is the debater's case for ``candidates[i]``."""
    case = "; ".join(f"{label}: {text}" for text, label in zip(cases, candidates))
    return (
        f"Debaters argue for the candidate classes {', '.join(candidates)} "
        f"of an object in a {scene_type}. {case}. "
        "Which class is correct? Answer with one class name."
    )


@dataclass(frozen=True)
class SizePrior:
    """Standard length/width/height of a class, meters."""

    length: float
    width: float
    height: float

    def __post_init__(self) -> None:
        dims = (self.length, self.width, self.height)
        # NaN would pass a `<= 0` test and then score every box a perfect fit
        if not all(math.isfinite(d) and d > 0 for d in dims):
            raise ValueError(f"size prior must be finite and positive, got {brief(dims)}")


@dataclass(frozen=True)
class SceneContext:
    """Scene type plus an optional free-text description."""

    scene_type: str
    description: str = ""

    def __post_init__(self) -> None:
        for name in ("scene_type", "description"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise TypeError(f"{name} must be a string, got {brief(value)}")
        if not self.scene_type:
            raise ValueError("scene_type must be non-empty")


@dataclass(frozen=True)
class SizeConstraintConfig:
    """Decay rate and relative-error deadband for the size constraint."""

    alpha: float = 0.25
    phi_size: float = 0.05

    def __post_init__(self) -> None:
        if not 0 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be nonnegative and finite, got {self.alpha}")
        if not 0 <= self.phi_size < 1:
            raise ValueError(f"phi_size must be in [0, 1), got {self.phi_size}")


class MissingSizePriorError(LookupError):
    """No size prior available for a class name."""

    def __init__(self, label: str):
        super().__init__(f"no size prior for class {brief(label)}")
        self.label = label

    def __reduce__(self):
        # rebuilt from its label, not its message, when it leaves a worker process
        return type(self), (self.label,)


class ProviderError(RuntimeError):
    """A knowledge provider failed to answer."""


@dataclass
class KnowledgeBase:
    """Offline stand-in for LLM answers: sizes, scene compatibility, novel set."""

    sizes: dict[str, SizePrior] = field(default_factory=dict)
    compat: dict[str, set[str]] = field(default_factory=dict)
    novel_classes: set[str] = field(default_factory=set)

    def __post_init__(self) -> None:
        missing = sorted(c for c in self.novel_classes if c not in self.sizes)
        if missing:
            raise ValueError(f"novel classes without a size entry: {brief(missing)}")

    @classmethod
    def from_dict(cls, data: Mapping) -> "KnowledgeBase":
        expect(data, Mapping, "knowledge base")
        sizes = {}
        for label, dims in expect(data.get("sizes", {}), Mapping, "sizes").items():
            where = f"sizes[{brief(label)}]"
            if len(expect(dims, ARRAY, where)) != 3:
                raise ValueError(f"{where} must be 3 numbers, got {brief(dims)}")
            sizes[label] = SizePrior(*(number(d, where) for d in dims))
        compat = {
            scene: _class_names(classes, f"compat[{brief(scene)}]")
            for scene, classes in expect(data.get("compat", {}), Mapping, "compat").items()
        }
        return cls(sizes, compat, _class_names(data.get("novel_classes", []), "novel_classes"))


def _class_names(values, where: str) -> set[str]:
    """The JSON array ``values`` of the field ``where`` as a set of class names."""
    for name in expect(values, ARRAY, where):
        if not isinstance(name, str):
            raise ValueError(f"{where} must hold class names, got {brief(name)}")
    return set(values)


def load_knowledge_base(path) -> KnowledgeBase:
    """The knowledge base in the JSON file ``path``; errors are prefixed ``path:``."""
    return parse_file(path, KnowledgeBase.from_dict)


def default_knowledge_base() -> KnowledgeBase:
    """The indoor-furniture knowledge base shipped with the package."""
    from importlib.resources import files

    return load_knowledge_base(files("ovrefine.data").joinpath("kb_indoor.json"))


class StaticKnowledgeProvider:
    """Answers size and scene queries from a knowledge base, offline."""

    def __init__(self, kb: KnowledgeBase):
        self.kb = kb

    def size_prior(self, label: str) -> SizePrior:
        try:
            return self.kb.sizes[label]
        except KeyError:
            raise MissingSizePriorError(label) from None

    def scene_compatible(self, label: str, scene_type: str) -> int:
        compatible = self.kb.compat.get(scene_type)
        if compatible is None:
            # unknown scene: absence of evidence should not delete detections
            return 1
        return 1 if label in compatible else 0

    def is_novel(self, label: str) -> bool:
        return label in self.kb.novel_classes

    def judge(
        self, candidates: Sequence[str], scene_type: str, cases: Sequence[str]
    ) -> str | None:
        """No verdict: offline, the debate's strength rule decides."""
        return None


def _http_post(url: str, api_key: str | None, payload: dict, timeout: float) -> dict:
    # imported here, the one place that talks HTTP, so that commands which
    # never send a request start without loading http.client, email and ssl
    import http.client
    import urllib.error
    import urllib.request

    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"), headers=headers
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        # an error status arrives with its response still open; close it
        # before the caller retries or falls back
        exc.close()
        raise
    except http.client.HTTPException as exc:
        # a reply cut short (IncompleteRead) or malformed is a failed
        # request, which the client retries like a refused connection
        raise ConnectionError(f"bad HTTP reply: {exc!r}") from exc


class LlmClient:
    """Minimal client for the remote completion endpoint.

    The wire format is a POST of ``{"prompt": ..., "max_tokens": MAX_TOKENS}``
    answered by ``{"text": ...}``. Endpoint and key default to the
    GLRD_LLM_ENDPOINT / GLRD_LLM_KEY environment variables. At most
    ``max_in_flight`` requests run concurrently; failures are retried
    with exponential backoff before giving up.
    """

    def __init__(
        self,
        endpoint: str | None = None,
        api_key: str | None = None,
        timeout: float = 10.0,
        retries: int = 2,
        backoff: float = 0.5,
        max_in_flight: int = 4,
        transport: Callable[[str, str | None, dict, float], dict] | None = None,
    ):
        self.endpoint = endpoint or os.environ.get(ENDPOINT_ENV)
        self.api_key = api_key or os.environ.get(API_KEY_ENV)
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self._transport = transport or _http_post
        if max_in_flight < 1:
            # a semaphore of 0 would admit no request and hang every caller
            raise ValueError(f"max_in_flight must be at least 1, got {max_in_flight}")
        # a negative retry count would make no attempt, and a timeout of 0 or
        # less fail every request, each quietly ending in the KB fallback
        if retries < 0:
            raise ValueError(f"retries must be at least 0, got {retries}")
        if not 0 < timeout < math.inf:
            raise ValueError(f"timeout must be a finite number above 0, got {timeout}")
        self._gate = threading.BoundedSemaphore(max_in_flight)
        # the requests sent to the endpoint, and those that failed after every retry
        self.requests = self.failed = 0
        self._counts = threading.Lock()

    def complete(self, prompt: str) -> str:
        if not self.endpoint:
            raise ProviderError(f"no LLM endpoint configured (set {ENDPOINT_ENV})")
        with self._counts:
            self.requests += 1
        payload = {"prompt": prompt, "max_tokens": MAX_TOKENS}
        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            if attempt and self.backoff > 0:
                time.sleep(self.backoff * 2 ** (attempt - 1))
            try:
                with self._gate:
                    body = self._transport(self.endpoint, self.api_key, payload, self.timeout)
                return str(body["text"])
            # a reply nested past the recursion limit makes the decoder raise
            except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
                last_error = exc
        with self._counts:
            self.failed += 1
        raise ProviderError(
            f"LLM request failed after {self.retries + 1} attempts: {last_error}"
        )


# each unit a size reply may name, in meters
_UNIT_SCALE = {
    "m": 1.0, "meter": 1.0, "meters": 1.0,
    "cm": 0.01, "centimeter": 0.01, "centimeters": 0.01,
    "mm": 0.001, "millimeter": 0.001, "millimeters": 0.001,
    "inch": 0.0254, "inches": 0.0254,
    "ft": 0.3048, "foot": 0.3048, "feet": 0.3048,
}

_TRIPLE_RE = re.compile(
    r"(\d+(?:\.\d+)?)\s*\*\s*(\d+(?:\.\d+)?)\s*\*\s*(\d+(?:\.\d+)?)"
    # "in" counts only before a unit, so "2*1*0.5 in a bedroom" is in meters;
    # the unit matches ASCII case only, so that its lower case is a key
    rf"(?:\s*(?:in\s+)?(?a:({'|'.join(sorted(_UNIT_SCALE, key=len, reverse=True))})))?\b",
    re.IGNORECASE,
)


def parse_size_reply(text: str) -> SizePrior | None:
    """Extract the first ``number*number*number`` triple from a reply.

    Dimensions are interpreted in meters unless a unit of ``_UNIT_SCALE``
    follows the triple, directly or after "in". Returns None when no
    well-formed triple is present.
    """
    match = _TRIPLE_RE.search(text)
    if match is None:
        return None
    scale = _UNIT_SCALE[(match.group(4) or "m").lower()]
    dims = [float(g) * scale for g in match.groups()[:3]]
    # a digit run past float range parses as inf, which no SizePrior accepts
    if not all(0 < d < math.inf for d in dims):
        return None
    return SizePrior(*dims)


_YES_WORDS = {"yes", "yeah", "yep", "sure", "certainly", "absolutely", "definitely"}
_NO_WORDS = {"no", "nope", "never"}


def parse_yes_no(text: str) -> int | None:
    """1 for an affirmative-leading reply, 0 for negative-leading, else None.

    An affirmative word followed by "not", as in "Absolutely not.", is negative.
    """
    match = re.search(r"([A-Za-z]+)(\s+(?i:not)\b)?", text)
    if match is None:
        return None
    word = match.group(1).lower()
    if word in _YES_WORDS:
        return 0 if match.group(2) else 1
    if word in _NO_WORDS:
        return 0
    return None


class RemoteKnowledgeProvider:
    """Knowledge provider backed by the LLM endpoint, over a knowledge base.

    The model answers size and scene queries and judges debates. Each
    distinct prompt is sent once per provider: its parsed reply, or its
    failure, is kept for the life of the provider and shared by every
    lookup, and a thread that asks for a prompt already in flight waits for
    that request. Each lookup falls back on its own: when the request failed
    or its reply holds no answer, a size or scene query gets the answer of
    the static provider over ``kb`` (a class without a KB size raises at
    every lookup, with no second request), and a debate gets no verdict, so
    a run whose requests all fail equals the static run. Novel-class gating
    is always the static provider's.
    """

    def __init__(self, client: LlmClient, kb: KnowledgeBase):
        self.client = client
        self.static = StaticKnowledgeProvider(kb)
        self._answers: dict[str, Future] = {}
        self._lock = threading.Lock()

    def _ask(self, prompt: str, parse: Callable[[str], T | None]) -> T | None:
        """``parse`` of the model's reply to ``prompt``; None when the request
        fails or the reply holds no answer. Sent the first time any thread
        asks; any error but ``ProviderError`` is raised to every caller."""
        # imported here, not with the module, so that `eval` does not load it
        from concurrent.futures import Future

        with self._lock:
            answer = self._answers.get(prompt)
            ask = answer is None
            if ask:
                answer = self._answers[prompt] = Future()
        if ask:
            try:
                result = parse(self.client.complete(prompt))
            except ProviderError:
                result = None
            except BaseException as exc:
                answer.set_exception(exc)
                raise
            answer.set_result(result)
        return answer.result()

    def size_prior(self, label: str) -> SizePrior:
        prior = self._ask(size_prompt(label), parse_size_reply)
        return self.static.size_prior(label) if prior is None else prior

    def scene_compatible(self, label: str, scene_type: str) -> int:
        verdict = self._ask(scene_prompt(label, scene_type), parse_yes_no)
        return self.static.scene_compatible(label, scene_type) if verdict is None else verdict

    def is_novel(self, label: str) -> bool:
        return self.static.is_novel(label)

    def judge(
        self, candidates: Sequence[str], scene_type: str, cases: Sequence[str]
    ) -> str | None:
        """The candidate the model names as a whole word, the longest one
        when it names several; None when the request fails or the reply
        names none ("cabinet" does not name "bin")."""

        def named(reply: str) -> str | None:
            reply = reply.lower()
            for label in sorted(candidates, key=len, reverse=True):
                if re.search(rf"(?<!\w){re.escape(label.lower())}(?!\w)", reply):
                    return label
            return None

        return self._ask(judge_prompt(candidates, scene_type, cases), named)


# --------------------------------------------------------------------------
# Constraints


def size_fit(measured: float, standard: float, cfg: SizeConstraintConfig) -> float:
    """Exponential decay of the relative size error beyond the deadband.

    exp(-alpha * max(0, |measured - standard| / standard - phi_size));
    equals 1 while the relative error stays within phi_size.
    """
    if standard <= 0:
        raise ValueError(f"standard dimension must be positive, got {standard}")
    excess = max(0.0, abs(measured - standard) / standard - cfg.phi_size)
    return math.exp(-cfg.alpha * excess)


def size_constraint(box: Box7DoF, prior: SizePrior, cfg: SizeConstraintConfig) -> float:
    """Mean per-dimension fit of a box against a class's standard size."""
    return (
        size_fit(box.l, prior.length, cfg)
        + size_fit(box.w, prior.width, cfg)
        + size_fit(box.h, prior.height, cfg)
    ) / 3.0


def scene_constraint(label: str, scene_type: str, provider) -> int:
    """1 when the class is judged reasonable in the scene, else 0."""
    verdict = provider.scene_compatible(label, scene_type)
    if type(verdict) is not int or verdict not in (0, 1):
        raise ValueError(f"provider returned non-binary scene verdict {brief(verdict)}")
    return verdict


def constraint_vector(
    box: Box7DoF,
    label: str,
    score: float,
    scene: SceneContext,
    provider,
    cfg: SizeConstraintConfig = SizeConstraintConfig(),
) -> ConstraintVector:
    """Assemble the (confidence, size, scene) constraints for one detection;
    the confidence constraint is ``score`` itself."""
    prior = provider.size_prior(label)
    return ConstraintVector(
        score,
        size_constraint(box, prior, cfg),
        scene_constraint(label, scene.scene_type, provider),
    )
