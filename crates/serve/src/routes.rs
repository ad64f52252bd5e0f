//! The query port's routes: the estimator roles' answers, the catalog
//! role's query management and per-query answers, and the routes every
//! role serves.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use implicate::{EstimateReader, ImplicationQuery, MetricsHandle};

use imp_serve::http::{Request, Response};

use crate::{flight, lock, Shared};

/// Catalog-role control message from an HTTP connection thread to the
/// catalog writer — the single owner of the
/// [`QueryCatalog`](implicate::QueryCatalog).
pub enum CatalogCtrl {
    /// Parse and register one query-spec line (the body of
    /// `POST /query`); replies with the raw id or a client-readable
    /// error.
    Register {
        line: String,
        reply: SyncSender<Result<u64, String>>,
    },
    /// Retire by raw id (`DELETE /query/{id}`); replies with whether
    /// the id was live.
    Retire { id: u64, reply: SyncSender<bool> },
}

/// What a query connection needs to answer `/estimate?query=…` without
/// consulting the writer: the registered name, the declarative query
/// (for its kind's `answer_from`), and a wait-free per-query reader.
pub struct CatalogQueryHandle {
    pub name: String,
    pub query: ImplicationQuery,
    pub reader: EstimateReader,
}

/// Read-side state of the catalog role. The writer owns the
/// [`QueryCatalog`](implicate::QueryCatalog); query connections resolve per-query readers here
/// and serve the Prometheus exposition the writer re-renders at the
/// publish cadence.
pub struct CatalogShared {
    /// Live queries by raw id — mutated only by the writer (register /
    /// retire); query threads lock briefly to resolve `?query=` by id
    /// or name.
    pub queries: Mutex<HashMap<u64, CatalogQueryHandle>>,
    /// Latest `QueryCatalog::prometheus_into` rendering, per-query
    /// labeled series included.
    pub exposition: Mutex<String>,
    /// Control channel into the catalog writer.
    pub ctrl: SyncSender<CatalogCtrl>,
}

/// What the query port reads, by role: each query worker answers from a
/// clone of its own.
#[derive(Clone)]
pub enum ReadHandle {
    /// The standalone, edge and aggregate roles: the serving estimator's
    /// reader and metrics registry.
    Estimator {
        reader: EstimateReader,
        metrics: MetricsHandle,
    },
    /// The catalog role: its per-query readers and control channel.
    Catalog(Arc<CatalogShared>),
}

/// Sends the control message `msg` builds around a reply channel and
/// waits up to 5 s for the writer's answer; a `503` when the writer is
/// gone or slow.
fn ask<T>(
    cat: &CatalogShared,
    msg: impl FnOnce(SyncSender<T>) -> CatalogCtrl,
) -> Result<T, Response> {
    let (reply_tx, reply_rx) = sync_channel(1);
    if cat.ctrl.send(msg(reply_tx)).is_err() {
        return Err(Response::text(
            "503 Service Unavailable",
            "catalog writer is gone\n",
        ));
    }
    reply_rx
        .recv_timeout(Duration::from_secs(5))
        .map_err(|_| Response::text("503 Service Unavailable", "catalog writer timed out\n"))
}

/// The catalog role's routes, then the routes every role serves.
fn catalog_route(req: &Request, cat: &CatalogShared, shared: &Shared) -> Response {
    let (method, route) = (req.method.as_str(), req.route.as_str());
    match (method, route) {
        ("GET", "/estimate") => {
            let Some(wanted) = req
                .query
                .split('&')
                .find_map(|kv| kv.strip_prefix("query="))
            else {
                return Response::text(
                    "400 Bad Request",
                    "catalog mode: GET /estimate?query=ID-or-NAME\n",
                );
            };
            let queries = lock(&cat.queries);
            let found = wanted
                .parse::<u64>()
                .ok()
                .and_then(|id| queries.get_key_value(&id))
                .or_else(|| queries.iter().find(|(_, h)| h.name == wanted));
            let Some((id, handle)) = found else {
                return Response::text("404 Not Found", format!("no query {wanted:?}\n"));
            };
            let view = handle.reader.view();
            let e = view.estimate();
            let answer = handle.query.kind.answer_from(&e);
            let body = format!(
                "{{\"id\":{id},\"name\":{},\"epoch\":{},\"tuples\":{},\
                 \"answer\":{answer},\"answer_bits\":{},\
                 \"f0_sup\":{},\"non_implication_count\":{},\"implication_count\":{}}}\n",
                flight::json_string(&handle.name),
                view.epoch(),
                view.tuples(),
                answer.to_bits(),
                e.f0_sup,
                e.non_implication_count,
                e.implication_count,
            );
            Response::new("200 OK", "application/json", body)
        }
        ("GET", "/queries") => {
            let queries = lock(&cat.queries);
            let mut rows: Vec<(u64, String)> = queries
                .iter()
                .map(|(id, h)| {
                    (
                        *id,
                        format!(
                            "{{\"id\":{id},\"name\":{},\"tuples\":{}}}",
                            flight::json_string(&h.name),
                            h.reader.view().tuples(),
                        ),
                    )
                })
                .collect();
            rows.sort_by_key(|(id, _)| *id);
            let body = format!(
                "{{\"queries\":[{}]}}\n",
                rows.iter()
                    .map(|(_, json)| json.as_str())
                    .collect::<Vec<_>>()
                    .join(",")
            );
            Response::new("200 OK", "application/json", body)
        }
        ("POST", "/query") => {
            let line = String::from_utf8_lossy(&req.body).trim().to_string();
            if line.is_empty() {
                return Response::text(
                    "400 Bad Request",
                    "empty body: expected one query spec line\n",
                );
            }
            match ask(cat, |reply| CatalogCtrl::Register { line, reply }) {
                Ok(Ok(id)) => {
                    let name = lock(&cat.queries)
                        .get(&id)
                        .map(|h| h.name.clone())
                        .unwrap_or_default();
                    let body = format!("{{\"id\":{id},\"name\":{}}}\n", flight::json_string(&name));
                    Response::new("200 OK", "application/json", body)
                }
                Ok(Err(e)) => Response::text("400 Bad Request", format!("{e}\n")),
                Err(unavailable) => unavailable,
            }
        }
        ("DELETE", _) if route.starts_with("/query/") => {
            let Ok(id) = route["/query/".len()..].parse::<u64>() else {
                return Response::text("400 Bad Request", "DELETE /query/{numeric-id}\n");
            };
            match ask(cat, |reply| CatalogCtrl::Retire { id, reply }) {
                Ok(true) => Response::text("200 OK", format!("retired {id}\n")),
                Ok(false) => Response::text("404 Not Found", format!("no query {id}\n")),
                Err(unavailable) => unavailable,
            }
        }
        ("GET", "/metrics") => {
            let mut body = lock(&cat.exposition).clone();
            shared.ingest_prometheus_into(&mut body);
            Response::new("200 OK", "text/plain; version=0.0.4", body)
        }
        ("GET", "/status") => {
            let queries = lock(&cat.queries).len();
            let body = format!(
                "{{\"role\":\"catalog\",\"queries\":{queries},\
                 \"accepted\":{},\"skipped\":{},\"skipped_oversize\":{},\
                 \"ingest_refused\":{},\"uptime_ms\":{}}}\n",
                shared.accepted.load(Ordering::Relaxed),
                shared.skipped.load(Ordering::Relaxed),
                shared.skipped_oversize.load(Ordering::Relaxed),
                shared.ingest_refused.load(Ordering::Relaxed),
                shared.now_ms(),
            );
            Response::new("200 OK", "application/json", body)
        }
        ("GET", "/snapshot") => Response::text(
            "404 Not Found",
            "no snapshots in catalog mode (state is per-query)\n",
        ),
        _ => common_route(req, shared),
    }
}

/// Answers one query request: the routes of the role `reads` belongs
/// to, then the routes every role serves.
pub fn route(req: &Request, shared: &Shared, reads: &ReadHandle) -> Response {
    let (reader, metrics) = match reads {
        ReadHandle::Estimator { reader, metrics } => (reader, metrics),
        ReadHandle::Catalog(cat) => return catalog_route(req, cat, shared),
    };
    match (req.method.as_str(), req.route.as_str()) {
        ("GET", "/estimate") => {
            let view = reader.view();
            let e = view.estimate();
            let body = format!(
                "{{\"epoch\":{},\"tuples\":{},\"accepted\":{},\"skipped\":{},\
             \"f0_sup\":{},\"non_implication_count\":{},\"implication_count\":{},\
             \"f0_sup_bits\":{},\"non_implication_count_bits\":{},\
             \"implication_count_bits\":{}}}\n",
                view.epoch(),
                view.tuples(),
                shared.accepted.load(Ordering::Relaxed),
                shared.skipped.load(Ordering::Relaxed),
                e.f0_sup,
                e.non_implication_count,
                e.implication_count,
                e.f0_sup.to_bits(),
                e.non_implication_count.to_bits(),
                e.implication_count.to_bits(),
            );
            Response::new("200 OK", "application/json", body)
        }
        ("GET", "/metrics") => {
            let mut body = metrics.prometheus("implicate");
            let now = shared.now_ms();
            if let Some(fleet) = &shared.fleet {
                fleet.prometheus_into("implicate", now, &mut body);
            }
            if let Some(edge) = &shared.edge {
                edge.prometheus_into("implicate", now, &mut body);
            }
            shared.ingest_prometheus_into(&mut body);
            Response::new("200 OK", "text/plain; version=0.0.4", body)
        }
        ("GET", "/status") => {
            let view = reader.view();
            let now = shared.now_ms();
            let mut body = format!(
                "{{\"role\":\"{}\",\"epoch\":{},\"tuples\":{},\
             \"accepted\":{},\"skipped\":{},\"skipped_oversize\":{},\
             \"ingest_refused\":{},\"uptime_ms\":{now}",
                shared.role,
                view.epoch(),
                view.tuples(),
                shared.accepted.load(Ordering::Relaxed),
                shared.skipped.load(Ordering::Relaxed),
                shared.skipped_oversize.load(Ordering::Relaxed),
                shared.ingest_refused.load(Ordering::Relaxed),
            );
            if let Some(fleet) = &shared.fleet {
                body.push_str(",\"fleet\":");
                body.push_str(&fleet.status_json(now));
            }
            if let Some(edge) = &shared.edge {
                body.push_str(",\"edge\":");
                body.push_str(&edge.status_json(now));
            }
            body.push_str("}\n");
            Response::new("200 OK", "application/json", body)
        }
        ("GET", "/snapshot") => match lock(&shared.snapshot).clone() {
            Some(data) => Response::new("200 OK", "application/octet-stream", data.to_vec()),
            None => Response::text("404 Not Found", "no checkpoint published yet\n"),
        },
        _ => common_route(req, shared),
    }
}

/// The routes every role serves.
fn common_route(req: &Request, shared: &Shared) -> Response {
    match (req.method.as_str(), req.route.as_str()) {
        ("GET", "/healthz") => Response::text("200 OK", "ok\n"),
        ("POST", "/shutdown") => {
            shared.stop.store(true, Ordering::Release);
            Response::text("200 OK", "shutting down\n")
        }
        (_, "/shutdown") => Response::text("405 Method Not Allowed", "shutdown needs POST\n")
            .with_header("Allow: POST"),
        _ => Response::text(
            "404 Not Found",
            "routes: /estimate /status /metrics /snapshot /healthz /shutdown\n",
        ),
    }
}
