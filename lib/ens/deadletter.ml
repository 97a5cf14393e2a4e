type entry = {
  notification : Notification.t;
  attempts : int;
  error : string;
  seq : int;
}

type t = {
  capacity : int;
  q : entry Queue.t;
  mutable total : int;
  mutable dropped : int;
}

let create ?(capacity = 1024) () =
  if capacity < 0 then invalid_arg "Deadletter.create: negative capacity";
  { capacity; q = Queue.create (); total = 0; dropped = 0 }

let capacity t = t.capacity

let length t = Queue.length t.q

let total t = t.total

let dropped t = t.dropped

let push t entry =
  t.total <- t.total + 1;
  if t.capacity = 0 then t.dropped <- t.dropped + 1
  else begin
    if Queue.length t.q >= t.capacity then begin
      ignore (Queue.pop t.q);
      t.dropped <- t.dropped + 1
    end;
    Queue.add entry t.q
  end

let entries t = List.of_seq (Queue.to_seq t.q)

let iter t f = Queue.iter f t.q

let replay t ~deliver =
  (* Drain first: a failed redelivery that goes back through supervised
     delivery may push itself (or a fresh failure) right back onto this
     queue, and must not be picked up again in the same pass. *)
  let pending = List.of_seq (Queue.to_seq t.q) in
  Queue.clear t.q;
  List.fold_left
    (fun (redelivered, failed) e ->
      if deliver e then (redelivered + 1, failed) else (redelivered, failed + 1))
    (0, 0) pending

let restore t entries ~total ~dropped =
  if total < 0 || dropped < 0 then
    invalid_arg "Deadletter.restore: negative counter";
  Queue.clear t.q;
  List.iter (fun e -> Queue.add e t.q) entries;
  while t.capacity > 0 && Queue.length t.q > t.capacity do
    ignore (Queue.pop t.q)
  done;
  if t.capacity = 0 then Queue.clear t.q;
  t.total <- total;
  t.dropped <- dropped

let force_counters t ~total ~dropped =
  if total < 0 || dropped < 0 then
    invalid_arg "Deadletter.force_counters: negative counter";
  t.total <- total;
  t.dropped <- dropped
