(* [None] reads the monotonic clock directly: the call's unboxed int64
   never passes through a closure, so the common case boxes nothing. *)
let fake : (unit -> int64) option ref = ref None

let[@inline] now_ns () =
  match !fake with None -> Monotonic_clock.now () | Some f -> f ()

let set_source f = fake := Some f

let reset_source () = fake := None
