type pid = int
type seqno = int
type round = int
type ring_id = { rep : pid; ring_seq : int }

let ring_id_equal a b = a.rep = b.rep && a.ring_seq = b.ring_seq

let pp_ring_id ppf r = Format.fprintf ppf "ring(%d.%d)" r.rep r.ring_seq

type service = Fifo | Causal | Agreed | Safe | Recovered

let service_equal a b =
  match (a, b) with
  | Fifo, Fifo | Causal, Causal | Agreed, Agreed | Safe, Safe
  | Recovered, Recovered ->
      true
  | (Fifo | Causal | Agreed | Safe | Recovered), _ -> false

let service_requires_stability = function
  | Safe -> true
  | Fifo | Causal | Agreed | Recovered -> false

let service_to_string = function
  | Fifo -> "fifo"
  | Causal -> "causal"
  | Agreed -> "agreed"
  | Safe -> "safe"
  | Recovered -> "recovered"
