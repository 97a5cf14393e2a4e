(** The paper's evaluation table, shared by the allocation guards. *)

val table : unit -> Genas_profile.Profile_set.t * Genas_model.Event.t array
(** 500 Gaussian equality profiles with 0.3 don't-care over 3 integer
    attributes of 100 points, and a pool of 1024 uniform events (seed
    1). *)

val minor_words : (unit -> unit) -> float
(** Minor-heap words allocated by one call. *)
