(** Canonical binary serialization of FIR programs — the payload migration
    actually ships (the target re-typechecks and recompiles it; machine
    code never travels, paper Section 4.2.2).

    Fixed-width little-endian integers, length-prefixed strings, one tag
    byte per constructor, an Adler-32 checksum over the body, and a
    version stamp.  {!decode} fails cleanly on corruption.

    The primitive readers/writers are exposed: the MASM and process-image
    codecs ({!Vm.Masm}, {!Migrate.Wire}) are built from the same
    toolkit. *)

exception Corrupt of string

val magic : string
val version : int

(** {2 Primitive writers} *)

val put_u8 : Buffer.t -> int -> unit
val put_i64 : Buffer.t -> int -> unit
val put_f64_exact : Buffer.t -> float -> unit
(** Exact bit pattern, split across two fields (OCaml ints are 63-bit). *)

val put_f64_bits : Buffer.t -> float -> unit
(** Compact 8-byte exact encoding. *)

val put_string : Buffer.t -> string -> unit
val put_bool : Buffer.t -> bool -> unit
val put_list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit

val put_uvarint : Buffer.t -> int -> unit
(** LEB128: 1 byte for values < 128, up to 9 bytes for the full 63-bit
    pattern (negative ints encode as their raw bit pattern). *)

val put_varint : Buffer.t -> int -> unit
(** Zigzag + LEB128: small magnitudes of either sign stay short — the
    heap-segment cell encoding of {!Migrate.Wire}. *)

(** {2 Primitive readers} *)

type reader = { data : string; mutable pos : int }

val get_u8 : reader -> int
val get_i64 : reader -> int
val get_f64_exact : reader -> float
val get_f64_bits : reader -> float
val get_string : reader -> string
val get_bool : reader -> bool
val get_list : reader -> (reader -> 'a) -> 'a list
val get_uvarint : reader -> int
val get_varint : reader -> int

val adler32 : string -> int
(** Adler-32, reduced once per 5552-byte block. *)

val encoded_digest : string -> string
(** 64-bit FNV-1a content digest of already-encoded bytes, as a 16-char
    hex string — the content address of a FIR payload.  A migration
    server can digest received bytes without decoding them first; see
    {!Digest} for the program-level API. *)

val fnv_offset : int64
(** The FNV-1a 64 offset basis: the state before any byte is hashed. *)

val fnv_update : int64 -> string -> int -> int -> int64
(** [fnv_update h s off len] continues the FNV-1a 64 state [h] over
    [len] bytes of [s] from [off].  Hashing slices in turn equals hashing
    their concatenation, so
    [fnv_hex (fnv_update fnv_offset s 0 (String.length s))] is
    [encoded_digest s].
    @raise Invalid_argument if the slice is out of bounds. *)

val fnv_hex : int64 -> string
(** The 16-char lowercase hex rendering {!encoded_digest} returns. *)

(** {2 Framing}

    The one frame every codec shares: magic, version, Adler-32 of the
    body, body length (each an {!put_i64} field after the magic), then
    the body. *)

type frame_fault =
  | Short_magic  (** the input is shorter than the magic *)
  | Bad_magic
  | Bad_version of int  (** the version the frame carries *)
  | Bad_length
  | Bad_checksum

val frame : magic:string -> version:int -> string -> string

val unframe :
  magic:string -> version:int -> fault:(frame_fault -> string) -> string ->
  reader
(** Check a frame and return a reader over its body: positioned at the
    body's first byte, ending exactly at its last.  The checksum runs
    over the body in place; bytes after the frame are ignored.  [fault]
    words the error of each codec.
    @raise Corrupt with [fault f] on a bad frame, or ["truncated input"]
    when a header field is cut short. *)

val at_end : reader -> bool
(** Every byte of the reader's input has been consumed. *)

(** {2 Shared operator codes} *)

val unop_code : Ast.unop -> int
val unop_of_code : int -> Ast.unop
val binop_code : Ast.binop -> int
val binop_of_code : int -> Ast.binop
val put_ty : Buffer.t -> Types.ty -> unit
val get_ty : reader -> Types.ty

(** {2 Programs} *)

val encode : Ast.program -> string
val decode : string -> Ast.program
(** @raise Corrupt on bad magic, version, length, checksum or trailing
    garbage. *)
