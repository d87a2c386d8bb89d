"""REPRO301 and the ``serve`` hand-off: a blocking receive is guarded by
the skeleton that runs it, but only when something hands it over."""


class Echo:
    def start(self):
        self._service = self.stack.tcp.serve(
            7, self._session, name="echo-listen", session_name="echo-session")

    def _session(self, conn):
        """Negative case: handed to ``serve``, whose session skeleton ends
        it on ConnectionClosed and catches the Interrupt of a stop()."""
        while True:
            msg, nbytes = yield conn.recv()
            conn.send(msg, nbytes)

    def _orphan(self, conn):
        """The identical body, handed to nobody: nothing guards it."""
        while True:
            msg, nbytes = yield conn.recv()
            conn.send(msg, nbytes)
