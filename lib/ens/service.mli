(** GENAS — the generic parameterized event notification service.

    The paper's prototype (§5: "we are currently implementing the
    prototype of a generic parameterized Event Notification System
    (GENAS) that is based on the filter algorithm introduced here") is
    a service in which "all events, attributes, domains, and compare
    operators can be created and specified at runtime" (§4.2). This
    facade provides exactly that: named schemas and named brokers are
    defined at runtime, and all interaction — schema definitions,
    subscriptions, events — can go through the textual formats, so a
    deployment needs no compiled-in application types. *)

type t

val create : unit -> t

(** {1 Schemas} *)

val define_schema :
  t -> name:string -> (string * Genas_model.Domain.t) list ->
  (unit, string) result
(** Fails on duplicate schema names or invalid attribute lists. *)

val define_schema_text :
  t -> name:string -> string list -> (unit, string) result
(** Each line ["attr : DOMAIN"] as in {!Store}. *)

val find_schema : t -> string -> Genas_model.Schema.t option

val schemas : t -> string list
(** Defined schema names, sorted. *)

(** {1 Brokers} *)

val create_broker :
  t ->
  name:string ->
  schema:string ->
  ?spec:Genas_core.Reorder.spec ->
  ?adaptive:Genas_core.Adaptive.policy ->
  unit ->
  (unit, string) result
(** Fails on duplicate broker names or unknown schemas. [spec] and
    [adaptive] are forwarded to {!Broker.create}; everything else takes
    its defaults (no metrics, the default retry policy, no journal). *)

val find_broker : t -> string -> Broker.t option

val brokers : t -> string list

(** {1 Textual interaction} *)

val subscribe :
  t -> broker:string -> subscriber:string -> string ->
  Notification.handler -> (Broker.sub_id, string) result
(** Profile body in the profile language. *)

val publish :
  t -> broker:string -> string -> (int, string) result
(** Event in the event syntax; returns the notification count. *)

val report : t -> broker:string -> (string, string) result
(** One-line status: subscriptions, events filtered, comparisons per
    event, adaptive rebuilds. *)
