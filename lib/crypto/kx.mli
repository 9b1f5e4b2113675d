(** Simulated ephemeral Diffie–Hellman key exchange.

    The attested key exchange ([Hyperenclave_attestation.Sigma]: the
    serving plane's handshake and the fleet's migration) needs an
    ephemeral key agreement: each side contributes a public share, and
    only the two holders of the matching secrets can compute the session
    secret.  Implementing production ECDH is outside the scope of this
    reproduction (the same documented substitution as {!Signature},
    DESIGN.md Sec. 2); what the exchange needs is the {e logic}: the
    shared secret is a function of the {e pair} of keypairs, both
    endpoints compute the same value, and code holding only the public
    shares cannot.

    The simulation: a keypair is [(secret, public)] with
    [public = H("kx-pub" || secret)]; a process-global registry maps
    [public -> secret] (standing in for the group mathematics), and
    [shared] hashes the unordered pair of secrets — so both sides agree,
    a third party mixing its own secret with a victim's public gets a
    {e different} value, and no secret means no shared key at all. *)

type secret
type public = bytes
(** 32 bytes, stable across runs for a fixed generation seed. *)

val generate : Hyperenclave_hw.Rng.t -> secret * public
(** Fresh ephemeral keypair, registered for agreement. *)

val valid_share : public -> bool
(** Whether a peer's share is a group element, one {!shared} agrees
    with.  A receiver checks a share here before it spends any work on
    the exchange.  In this simulation that means the registry knows the
    share; with real group algebra it is a membership test. *)

val shared : secret -> public -> bytes option
(** [shared mine theirs] is the 32-byte agreed secret, symmetric in the
    two keypairs ([shared a pk_b = shared b pk_a]); [None] if [theirs]
    was never generated by this process (an unknown group element). *)
