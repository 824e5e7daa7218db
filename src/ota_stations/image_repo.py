"""Image repository actor: versioned image/manifest storage, credential
checks on download, whole-image and bucket-range serving.

Locations have the form "<repo_id>/<software>/<version>".  Download
authorization accepts either a producer-signed manifest naming the location
(director-side validation fetches) or a bundle whose grant chain, rooted at
the publish role, reaches the requester.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import messages as msg
from .crypto import digest
from .simnet import Actor, Envelope, World


class RepoError(Exception):
    pass


@dataclass
class RepoEntry:
    location: str
    image: msg.UpdateImage
    manifest: msg.UpdateManifest


def location_for(repo_id: str, software: str, version: int) -> str:
    return f"{repo_id}/{software}/{version}"


class ImageRepo(Actor):
    def __init__(self, name: str, world: World, trust: msg.TrustContext):
        super().__init__(name, world)
        self.trust = trust
        self.entries: dict = {}  # location -> RepoEntry

    # -- storage -----------------------------------------------------------

    def store(self, image: msg.UpdateImage, manifest: msg.UpdateManifest,
              producer: str) -> str:
        """Step-1 ingestion; prior versions are retained."""
        if not self.trust.signed_by(manifest.sigma, (producer,),
                                    msg.payload_digest(manifest)):
            raise RepoError("manifest not signed by the claimed producer")
        if digest(image.data) != manifest.theta.h:
            raise RepoError("image digest does not match manifest")
        self.entries[manifest.l] = RepoEntry(manifest.l, image, manifest)
        return manifest.l

    def dump(self):
        """Content-addressed inspection listing, deterministic order."""
        return sorted((e.location, len(e.image.data), e.manifest.tau.v)
                      for e in self.entries.values())

    # -- authorization -----------------------------------------------------

    def _authorized(self, credential, location: str, requester: str) -> bool:
        if isinstance(credential, msg.UpdateManifest):
            # Director-side validation fetch: the producer-signed manifest
            # itself, before any role has signed it.
            return credential.l == location and self.trust.verify_manifest(
                credential, roles=())
        if isinstance(credential, msg.Bundle):
            return any(m.l == location for m in credential.manifests) \
                and self.trust.granted(credential, requester)
        return False

    # -- message handlers --------------------------------------------------

    def on_store_image(self, env: Envelope):
        try:
            location = self.store(env.payload["image"],
                                  env.payload["manifest"],
                                  env.payload["producer"])
            self.reply(env, "store_ok", {"l": location}, 64)
        except RepoError as exc:
            self.reply(env, "store_err", {"reason": str(exc)}, 64)

    def on_fetch(self, env: Envelope):
        location = env.payload["l"]
        credential = env.payload.get("credential")
        if not self._authorized(credential, location, env.src):
            self.reply(env, "fetch_err", {"reason": "unauthorized",
                                          "l": location}, 64)
            return
        entry = self.entries.get(location)
        if entry is None:
            self.reply(env, "fetch_err", {"reason": "not_found",
                                          "l": location}, 64)
            return
        self.reply_buckets(env, "fetch_ok", entry.image.buckets(), l=location)

