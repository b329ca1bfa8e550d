//! Client library: connect, typed request helpers, and
//! retry-with-exponential-backoff on `Busy` and transient I/O failures.

use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use revelio_gnn::Gnn;
use revelio_trace::AssembledTrace;

use crate::wire::{
    read_frame, write_frame, ErrorKind, ExplainRequest, GatewayStats, Request, Response,
    ServedExplanation, ServerStats, WireError, WireExplanationSummary, WireStoredExplanation,
    MAX_FRAME_LEN, WRITE_TIMEOUT,
};

/// Ceiling of the retry backoff, which doubles from
/// [`ClientConfig::backoff_base`].
const BACKOFF_MAX: Duration = Duration::from_secs(2);

/// Client-side knobs; the defaults suit loopback and LAN serving.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Socket read timeout for one response. Explanations can legitimately
    /// take a while (queue wait + optimisation), so this is generous.
    pub read_timeout: Duration,
    /// Retry budget for [`Client::explain_with_retry`] and
    /// [`Client::connect_with_retry`]: total attempts, including the first.
    pub max_attempts: u32,
    /// First backoff sleep; doubles on every retry.
    pub backoff_base: Duration,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            read_timeout: Duration::from_secs(120),
            max_attempts: 6,
            backoff_base: Duration::from_millis(20),
        }
    }
}

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or codec failure.
    Wire(WireError),
    /// The server answered with a typed error.
    Server {
        /// Machine-readable category.
        kind: ErrorKind,
        /// Human-readable detail from the server.
        message: String,
    },
    /// The server shed the request (`Busy`) and the retry budget — if any
    /// was allowed — is exhausted.
    Busy {
        /// Jobs in flight when the last attempt was refused.
        in_flight: u32,
        /// The server's admission limit.
        limit: u32,
    },
    /// The server answered with a response that does not match the
    /// request (a protocol bug; carries a short description).
    UnexpectedResponse(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "wire: {e}"),
            ClientError::Server { kind, message } => {
                write!(f, "server error ({kind:?}): {message}")
            }
            ClientError::Busy { in_flight, limit } => {
                write!(f, "server busy ({in_flight}/{limit} in flight)")
            }
            ClientError::UnexpectedResponse(what) => {
                write!(f, "response does not match the request: {what}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

impl ClientError {
    /// Whether a retry (possibly on a fresh connection) could succeed.
    pub fn is_retryable(&self) -> bool {
        match self {
            ClientError::Busy { .. } => true,
            ClientError::Wire(e) => e.is_transient(),
            _ => false,
        }
    }

    /// Whether the failure happened in transport (socket or codec) rather
    /// than as a server-level answer. A gateway may re-route a transport
    /// failure to another backend, but `Busy` and typed server errors are
    /// genuine answers that must propagate to the caller verbatim —
    /// retrying them inside the gateway would hide backpressure.
    pub fn is_transport(&self) -> bool {
        matches!(self, ClientError::Wire(_))
    }
}

/// A blocking connection to one `revelio-serve` instance.
///
/// Not thread-safe by design (requests are strictly sequential on one
/// connection); open one client per thread for concurrent load.
pub struct Client {
    stream: TcpStream,
    /// The address the stream was connected to, captured while the socket
    /// is known-good; reconnects use this rather than `peer_addr()`, which
    /// fails on a dead socket.
    addr: std::net::SocketAddr,
    cfg: ClientConfig,
}

impl Client {
    /// Connects with default [`ClientConfig`].
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client, ClientError> {
        Client::connect_with(addr, ClientConfig::default())
    }

    /// Connects with explicit configuration.
    pub fn connect_with<A: ToSocketAddrs>(
        addr: A,
        cfg: ClientConfig,
    ) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr).map_err(WireError::Io)?;
        let addr = stream.peer_addr().map_err(WireError::Io)?;
        stream
            .set_read_timeout(Some(cfg.read_timeout))
            .map_err(WireError::Io)?;
        stream
            .set_write_timeout(Some(WRITE_TIMEOUT))
            .map_err(WireError::Io)?;
        let _ = stream.set_nodelay(true);
        Ok(Client { stream, addr, cfg })
    }

    /// Connects, retrying with exponential backoff while the server is
    /// still coming up (covers the start-up race in scripts that launch
    /// `revelio-serve` and a client back to back).
    pub fn connect_with_retry<A: ToSocketAddrs + Clone>(
        addr: A,
        cfg: ClientConfig,
    ) -> Result<Client, ClientError> {
        let mut backoff = cfg.backoff_base;
        let mut attempt = 0;
        loop {
            attempt += 1;
            match Client::connect_with(addr.clone(), cfg.clone()) {
                Ok(c) => return Ok(c),
                Err(e) if attempt < cfg.max_attempts => {
                    let _ = e;
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(BACKOFF_MAX);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// The address this client connected to.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Replaces the underlying stream with a fresh connection to the same
    /// address. Use after a transport error: the old stream may hold half
    /// a frame, and reconnecting is cheaper than resynchronising.
    pub fn reconnect(&mut self) -> Result<(), ClientError> {
        let fresh = Client::connect_with(self.addr, self.cfg.clone())?;
        self.stream = fresh.stream;
        Ok(())
    }

    /// Sends one request and reads one response (no retries).
    pub fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, &req.encode(), MAX_FRAME_LEN)?;
        match read_frame(&mut self.stream, MAX_FRAME_LEN)? {
            Some((payload, _)) => Ok(Response::decode(&payload).map_err(WireError::Decode)?),
            None => Err(ClientError::Wire(WireError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection before answering",
            )))),
        }
    }

    /// Liveness check; returns the server's protocol version.
    pub fn ping(&mut self) -> Result<u16, ClientError> {
        match self.request(&Request::Ping)? {
            Response::Pong { version } => Ok(version),
            other => Err(unexpected(&other, "expected Pong")),
        }
    }

    /// Ships `model` (architecture + weights) and returns the server's id
    /// for it.
    pub fn register_model(&mut self, model: &Gnn) -> Result<u32, ClientError> {
        let req = Request::RegisterModel {
            config: model.config().clone(),
            state: model.state_dict(),
        };
        match self.request(&req)? {
            Response::ModelRegistered { model } => Ok(model),
            other => Err(unexpected(&other, "expected ModelRegistered")),
        }
    }

    /// Requests one explanation; `Busy` surfaces as [`ClientError::Busy`]
    /// without retrying.
    pub fn explain(&mut self, req: &ExplainRequest) -> Result<ServedExplanation, ClientError> {
        match self.request(&Request::Explain(req.clone()))? {
            Response::Explained(e) => Ok(e),
            Response::Busy { in_flight, limit } => Err(ClientError::Busy { in_flight, limit }),
            other => Err(unexpected(&other, "expected Explained")),
        }
    }

    /// Requests one explanation, retrying with exponential backoff on
    /// `Busy` and on transient I/O errors (reconnecting for the latter).
    ///
    /// At most [`ClientConfig::max_attempts`] attempts are made; the last
    /// failure is returned when the budget runs out.
    pub fn explain_with_retry(
        &mut self,
        req: &ExplainRequest,
    ) -> Result<ServedExplanation, ClientError> {
        let mut backoff = self.cfg.backoff_base;
        let mut attempt = 0;
        loop {
            attempt += 1;
            match self.explain(req) {
                Ok(e) => return Ok(e),
                Err(e) if e.is_retryable() && attempt < self.cfg.max_attempts => {
                    if let ClientError::Wire(_) = &e {
                        // The stream may hold half a frame; reconnect
                        // rather than resynchronise.
                        if let Ok(fresh) = Client::connect_with(self.addr, self.cfg.clone()) {
                            self.stream = fresh.stream;
                        }
                    }
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(BACKOFF_MAX);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Fetches the server's unified wire + runtime stats.
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        Ok(self.stats_full()?.0)
    }

    /// Fetches stats together with the optional gateway tail. Talking to a
    /// plain `revelio-serve` backend yields `None`; talking to a
    /// `revelio-gateway` yields the fleet rollup.
    pub fn stats_full(&mut self) -> Result<(ServerStats, Option<GatewayStats>), ClientError> {
        match self.request(&Request::Stats)? {
            Response::Stats(s, gateway) => Ok((*s, gateway.map(|g| *g))),
            other => Err(unexpected(&other, "expected Stats")),
        }
    }

    /// Fetches an assembled trace: `Some([hi, lo])` names the 128-bit id
    /// (`[0, trace_id]` for the id echoed on a traced
    /// [`ServedExplanation`]), `None` the newest trace the peer retains.
    /// Against a gateway this stitches gateway + backend lanes; against a
    /// backend it is the single-lane fragment. A retention miss surfaces
    /// as [`ErrorKind::UnknownTrace`] inside [`ClientError::Server`].
    pub fn assembled_trace(&mut self, id: Option<[u64; 2]>) -> Result<AssembledTrace, ClientError> {
        match self.request(&Request::AssembledTrace(id))? {
            Response::Assembled(t) => Ok(*t),
            other => Err(unexpected(&other, "expected Assembled")),
        }
    }

    /// Fetches a persisted explanation from the server's store by runtime
    /// job id, or `None` if the store holds nothing under that id. Job ids
    /// survive server restarts; discover them with
    /// [`Client::list_explanations`].
    pub fn fetch_explanation(
        &mut self,
        job_id: u64,
    ) -> Result<Option<WireStoredExplanation>, ClientError> {
        match self.request(&Request::FetchExplanation(job_id))? {
            Response::Explanation(e) => Ok(e.map(|b| *b)),
            other => Err(unexpected(&other, "expected Explanation")),
        }
    }

    /// Lists every explanation the server's store holds, ascending by job
    /// id.
    pub fn list_explanations(&mut self) -> Result<Vec<WireExplanationSummary>, ClientError> {
        match self.request(&Request::ListExplanations)? {
            Response::ExplanationList(list) => Ok(list),
            other => Err(unexpected(&other, "expected ExplanationList")),
        }
    }

    /// Asks the server to shut down gracefully; returns once acknowledged.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Shutdown)? {
            Response::ShutdownAck => Ok(()),
            other => Err(unexpected(&other, "expected ShutdownAck")),
        }
    }
}

fn unexpected(resp: &Response, what: &'static str) -> ClientError {
    // Server-sent errors are worth preserving verbatim.
    if let Response::Error { kind, message } = resp {
        return ClientError::Server {
            kind: *kind,
            message: message.clone(),
        };
    }
    ClientError::UnexpectedResponse(what)
}
