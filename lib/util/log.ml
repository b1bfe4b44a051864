let setup ?(level = Logs.Warning) () =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some level)
