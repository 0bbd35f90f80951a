(** Growable array (OCaml 5.2's [Dynarray] is not available on 5.1). *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val push : 'a t -> 'a -> unit

val get : 'a t -> int -> 'a
(** Raises [Invalid_argument] when out of bounds. *)

val set : 'a t -> int -> 'a -> unit

val to_list : 'a t -> 'a list
