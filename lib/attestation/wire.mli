(** Wire format for HyperEnclave quotes (Fig. 4).

    The evaluation's attestation flow ships the quote to a remote
    verifier; this module gives the structure of Fig. 4 a concrete,
    length-framed binary encoding (an extension of [sgx_quote_t], as
    Sec. 5.3 describes) so the verifier side can run on untrusted bytes.
    Decoding performs structural validation only — cryptographic checks
    stay in {!Verifier}. *)

open Hyperenclave_monitor

val encode : Monitor.quote -> bytes
(** One buffer of exactly the quote's size; every integer is written as
    [string_of_int] writes it. *)

val decode : bytes -> (Monitor.quote, string) result
(** Structural parse: every field length-checked, trailing bytes
    rejected, and every integer accepted only in the spelling {!encode}
    writes (no sign but a leading '-', no leading zero, no "-0", base
    prefix or '_'), so a quote has one wire form.  A decoded quote is
    untrusted data until {!Verifier.verify} passes. *)
