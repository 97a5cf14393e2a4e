(** Seeded-deterministic binary codec for durable broker state.

    The {!Journal} and {!Snapshot} modules serialize broker operations
    and state through these encoders. The format is little-endian and
    self-delimiting: every on-disk {e frame} is length-prefixed and
    checksummed with seeded FNV-1a 64, so torn writes and bit rot are
    detected structurally — a corrupt tail truncates, it never decodes.
    The checksum seed is part of the journal configuration (and stored
    in the file header), making whole files reproducible byte-for-byte
    from the same operations and seed. *)

exception Corrupt of string
(** Raised by readers on malformed input. {!Journal} and {!Snapshot}
    catch it at the record boundary and turn it into truncation or an
    [Error] — it never escapes to broker callers. *)

val checksum : seed:int -> string -> int64
(** Seeded FNV-1a 64 over the payload bytes. *)

val checksum_continue : int64 -> string -> int64
(** Fold more bytes into a running checksum:
    [checksum_continue (checksum ~seed a) b = checksum ~seed (a ^ b)]. *)

(** {1 Writers} (append to a [Buffer.t]) *)

val w_u8 : Buffer.t -> int -> unit
val w_int : Buffer.t -> int -> unit
val w_bool : Buffer.t -> bool -> unit
val w_float : Buffer.t -> float -> unit
val w_string : Buffer.t -> string -> unit
val w_option : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a option -> unit
val w_list : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a list -> unit
val w_array : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a array -> unit

(** {1 Readers} (a cursor over an in-memory string) *)

type reader

val reader : string -> reader

val r_u8 : reader -> int
val r_int : reader -> int
val r_bool : reader -> bool
val r_float : reader -> float
val r_string : reader -> string
val r_option : (reader -> 'a) -> reader -> 'a option
val r_list : (reader -> 'a) -> reader -> 'a list
val r_array : (reader -> 'a) -> reader -> 'a array

val r_end : reader -> unit
(** @raise Corrupt unless the cursor consumed the whole buffer. *)

(** {1 Frames} *)

val frame_header_len : int
(** Bytes of framing overhead per record (length + checksum). *)

val default_max_frame : int
(** The wire's payload-size ceiling (16 MiB), {!read_frame}'s default.
    A frame's length prefix is untrusted input — on a socket an
    adversarial peer controls it, on disk bit rot does — so every reader
    validates it against a bound {e before} sizing an allocation. *)

val frame : seed:int -> string -> string
(** Wrap a payload as [u32 LE length | i64 LE checksum | payload].
    @raise Invalid_argument if the payload exceeds the u32 prefix. *)

val frame_header : len:int -> int64 -> string
(** The header {!frame} puts before a [len]-byte payload with this
    checksum, for a writer that streams the payload itself. *)

val parse_frames :
  ?max_frame:int -> seed:int -> string -> pos:int -> string list * int * bool
(** [parse_frames ~seed buf ~pos] decodes consecutive frames starting
    at [pos]; stops at the first torn or checksum-failing frame (or one
    whose declared length is negative or exceeds [max_frame]; by
    default only [buf]'s own length bounds a frame, so on-disk records
    past {!default_max_frame} still decode). Returns [(payloads, valid_end,
    tail_corrupt)]: the decoded payloads in order, the byte offset one
    past the last valid frame, and whether undecodable bytes remain
    after it. *)

val read_frame :
  ?max_frame:int -> seed:int -> in_channel ->
  (string, [ `Eof | `Corrupt of string ]) result
(** Read one frame from a channel (blocking). The 12-byte header is
    read first and its length field bound-checked against [max_frame]
    before the payload buffer is allocated. [`Eof] means the channel
    ended cleanly {e between} frames; a tear inside a frame, a checksum
    mismatch, or an out-of-bounds length is [`Corrupt]. *)

(** {1 Domain encodings} *)

val w_value : Buffer.t -> Genas_model.Value.t -> unit
val r_value : reader -> Genas_model.Value.t

val w_event : Buffer.t -> Genas_model.Event.t -> unit

val r_event : Genas_model.Schema.t -> reader -> Genas_model.Event.t
(** Revalidates against the schema ([Corrupt] on domain violations). *)

val w_notification : Buffer.t -> Notification.t -> unit
val r_notification : Genas_model.Schema.t -> reader -> Notification.t

val w_deadletter : Buffer.t -> Deadletter.entry -> unit
val r_deadletter : Genas_model.Schema.t -> reader -> Deadletter.entry

val w_profile :
  Genas_model.Schema.t -> Buffer.t -> Genas_profile.Profile.t -> unit
(** As name + profile-language body (the {!Store} persistence
    contract: the body re-parses to an equivalent profile). *)

val r_profile : Genas_model.Schema.t -> reader -> Genas_profile.Profile.t

type prim = {
  id : int;
  subscriber : string;
  profile : Genas_profile.Profile.t;
  record : string;
      (** [id | subscriber | profile] as encoded: the tail of a journal
          [Subscribe] record and a snapshot's profile entry alike *)
}

val prim :
  Genas_model.Schema.t -> id:int -> subscriber:string ->
  Genas_profile.Profile.t -> prim

val r_prim : Genas_model.Schema.t -> reader -> prim
(** [record] is the slice of the input the entry spans. *)

val w_expr : Genas_model.Schema.t -> Buffer.t -> Composite.expr -> unit
val r_expr : Genas_model.Schema.t -> reader -> Composite.expr

val w_ops : Buffer.t -> Genas_filter.Ops.t -> unit
val r_ops : reader -> Genas_filter.Ops.t

val w_estimator : Buffer.t -> Genas_dist.Estimator.Export.t -> unit
val r_estimator : reader -> Genas_dist.Estimator.Export.t

val w_stats : Buffer.t -> Genas_core.Stats.Export.t -> unit
val r_stats : reader -> Genas_core.Stats.Export.t

val w_adaptive : Buffer.t -> Genas_core.Adaptive.Export.t -> unit
val r_adaptive : reader -> Genas_core.Adaptive.Export.t

val w_supervise : Buffer.t -> Supervise.Export.t -> unit
val r_supervise : reader -> Supervise.Export.t

val schema_fingerprint : Genas_model.Schema.t -> string
(** Rendered attribute list, stored in snapshots so recovery under a
    different schema fails loudly instead of decoding garbage. *)
