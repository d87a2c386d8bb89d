"""Packet-level network substrate: links, NICs, routing, UDP/TCP/ICMP."""

from .link import Channel, Link
from .nic import DEFAULT_INIT_SPEED_BPS, NIC
from .node import Node
from .packet import (
    Datagram,
    ICMP_HEADER,
    IP_HEADER,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    TCP_HEADER,
    UDP_HEADER,
)
from .shaper import TokenBucket
from .sockets import IcmpError, NetworkStack, PortInUse, UdpSocket
from .tcp import (
    ConnectError,
    ConnectionClosed,
    TcpConnection,
    TcpLayer,
    TcpListener,
    TcpService,
)
from .topology import ETHERNET_100, MBPS, Network

__all__ = [
    "Datagram",
    "IP_HEADER",
    "UDP_HEADER",
    "TCP_HEADER",
    "ICMP_HEADER",
    "PROTO_UDP",
    "PROTO_TCP",
    "PROTO_ICMP",
    "Channel",
    "Link",
    "NIC",
    "DEFAULT_INIT_SPEED_BPS",
    "Node",
    "Network",
    "MBPS",
    "ETHERNET_100",
    "NetworkStack",
    "UdpSocket",
    "IcmpError",
    "PortInUse",
    "TokenBucket",
    "TcpLayer",
    "TcpListener",
    "TcpService",
    "TcpConnection",
    "ConnectionClosed",
    "ConnectError",
]
