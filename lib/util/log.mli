(** Logging setup shared by executables and tests.

    A thin wrapper over [Logs] that installs an [Fmt]-based reporter.
    Modules that log create their own source (e.g. [accelring.member]). *)

val setup : ?level:Logs.level -> unit -> unit
(** [setup ~level ()] installs a formatted stderr reporter. Defaults to
    [Logs.Warning] so tests stay quiet unless asked. *)
