(* The wait queue is created by the first read that has to wait, so an
   ivar filled before anyone reads it never builds one. *)
type 'a state = Empty | Waiting of Engine.waitq | Full of 'a

type 'a t = { mutable state : 'a state }

let create () = { state = Empty }

let fill t v =
  match t.state with
  | Full _ -> invalid_arg "Ivar.fill: already filled"
  | Empty -> t.state <- Full v
  | Waiting q ->
      t.state <- Full v;
      Engine.wake_all q

(* Only [fill] wakes the queue, so a resumed reader finds the value. *)
let filled t = match t.state with Full v -> v | Empty | Waiting _ -> assert false

let read t =
  match t.state with
  | Full v -> v
  | Waiting q ->
      Engine.park q;
      filled t
  | Empty ->
      let q = Engine.waitq () in
      t.state <- Waiting q;
      Engine.park q;
      filled t

let peek t = match t.state with Full v -> Some v | Empty | Waiting _ -> None
let is_filled t = match t.state with Full _ -> true | Empty | Waiting _ -> false
